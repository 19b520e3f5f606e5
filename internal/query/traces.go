package query

import (
	"fmt"

	"wet/internal/core"
	"wet/internal/ir"
)

// Sample is one element of a per-instruction trace: the global timestamp of
// the node execution that produced it and the value (or address).
type Sample struct {
	TS    uint32
	Value int64
}

// StmtError reports a statement id that names no statement of the traced
// program, handed to a per-statement query.
type StmtError struct {
	StmtID, Stmts int
}

func (e *StmtError) Error() string {
	return fmt.Sprintf("query: statement %d outside [0,%d)", e.StmtID, e.Stmts)
}

func checkStmt(w *core.WET, stmtID int) error {
	if stmtID < 0 || stmtID >= len(w.StmtOcc) {
		return &StmtError{StmtID: stmtID, Stmts: len(w.StmtOcc)}
	}
	return nil
}

// valRun is one producer of an occurrence's samples: the occurrence itself
// for a value trace, one incoming dependence edge of the address operand for
// an address trace.
type valRun struct {
	vr  *valReader      // the producer's values; nil for a constant
	lab *[2]core.Window // the edge's (dst, src) labels; nil when sample k takes the producer's k-th value
	k   int             // the next label to read
}

// occSrc is one occurrence of the traced statement, read forward in windows
// of up to core.WalkChunk node executions: the node's timestamps are drained
// with one batched read per window, and each run then supplies the values of
// the executions it covers — the runs of one occurrence partition its
// ordinals, so they fill one window between them and only occurrences need
// merging.
type occSrc struct {
	ts         core.Seq // the node's timestamps; its position is the next window's first ordinal
	runs       []valRun
	buf        [core.WalkChunk]Sample
	head, fill int // undelivered samples are buf[head:fill]
}

// refill decodes the next window that holds a sample into o.buf; false means
// the occurrence is exhausted, or (q.err set) a label points nowhere. A
// sample's value is (add + produced) & mask.
func (o *occSrc) refill(q *qctx, add, mask int64) bool {
	for base := o.ts.Pos(); base < o.ts.Len(); base = o.ts.Pos() {
		ts := q.ts[:o.ts.NextN(q.ts[:])]
		end := base + len(ts)
		var have uint64 // bit k: execution base+k has a sample (WalkChunk <= 64)
		for ri := range o.runs {
			switch r := &o.runs[ri]; {
			case r.vr == nil:
				have = ^uint64(0)
				clear(o.buf[:len(ts)])
			case r.lab == nil:
				have = ^uint64(0)
				vals := q.buf[:len(ts)]
				r.vr.seq.Read(base, vals)
				for k, x := range vals {
					v, ok := r.vr.val(q, x)
					if !ok {
						return false
					}
					o.buf[k].Value = v
				}
			default: // the label windows fill in step: both read runs from r.k
			labels:
				for r.k < r.lab[0].Len() {
					dst, src := r.lab[0].Run(r.k), r.lab[1].Run(r.k)
					for j := range min(len(dst), len(src)) {
						d := int(dst[j])
						if d >= end {
							break labels
						}
						if r.k++; d >= base { // destination ordinals only grow
							v, ok := r.vr.at(q, int(src[j]))
							if !ok {
								return false
							}
							o.buf[d-base].Value = v
							have |= 1 << (d - base)
						}
					}
				}
			}
		}
		o.head, o.fill = 0, 0
		for k, t := range ts {
			if have&(1<<k) != 0 {
				o.buf[o.fill] = Sample{TS: t, Value: (add + o.buf[k].Value) & mask}
				o.fill++
			}
		}
		if o.fill > 0 {
			return true
		}
	}
	return false
}

// mergeSamples emits the samples of srcs, each in timestamp order, in
// timestamp order overall, and returns how many there were; it stops at the
// first label that points nowhere (q.err). It drains the
// source with the smallest head up to the runner-up's head before looking
// again, so a pick costs O(len(srcs)) per switch of occurrence, not per
// sample.
func (q *qctx) mergeSamples(srcs []occSrc, add, mask int64, emit func(Sample)) (count uint64) {
	live := make([]*occSrc, 0, len(srcs))
	heads := make([]uint32, 0, len(srcs)) // heads[i] is live[i]'s next timestamp
	for i := range srcs {
		if o := &srcs[i]; o.refill(q, add, mask) {
			live, heads = append(live, o), append(heads, o.buf[0].TS)
		}
	}
	for len(live) > 0 && q.err == nil {
		best, limit := 0, ^uint32(0)
		for i, t := range heads {
			switch {
			case t < heads[best]:
				best, limit = i, heads[best]
			case t < limit && i != best:
				limit = t
			}
		}
		o := live[best]
		for o.buf[o.head].TS <= limit {
			if emit != nil {
				emit(o.buf[o.head])
			}
			count++
			if o.head++; o.head == o.fill && !o.refill(q, add, mask) {
				break
			}
		}
		if o.head < o.fill {
			heads[best] = o.buf[o.head].TS
			continue
		}
		last := len(live) - 1
		live[best], heads[best] = live[last], heads[last]
		live, heads = live[:last], heads[:last]
	}
	return count
}

// ValueTrace extracts the complete value trace of one static statement in
// execution order, merging its occurrences across WET nodes by timestamp.
// This is the paper's "per instruction load value trace" when the statement
// is a load (Table 7). A statement id outside the program returns a
// *StmtError. On a lazily loaded WET, a stream failing its deferred decode
// surfaces as a *stream.DecodeError, not a panic.
func ValueTrace(w *core.WET, tier core.Tier, stmtID int, emit func(Sample)) (count uint64, err error) {
	defer core.RecoverTyped(&err)
	return newCtx(w, tier).valueTrace(stmtID, emit)
}

func (q *qctx) valueTrace(stmtID int, emit func(Sample)) (uint64, error) {
	if err := checkStmt(q.w, stmtID); err != nil {
		return 0, err
	}
	refs := q.w.StmtOcc[stmtID]
	srcs := q.occs(len(refs))
	for _, ref := range refs {
		n := q.w.Nodes[ref.Node]
		vr, err := q.valueReader(n, ref.Pos)
		if err != nil {
			return 0, err
		}
		srcs = append(srcs, occSrc{ts: q.w.TSSeq(n, q.tier), runs: []valRun{{vr: vr}}})
	}
	return q.mergeSamples(srcs, 0, -1, emit), q.err
}

// LoadValueTraces extracts the value trace of every load instruction
// (Table 7). It returns the total number of samples (×4 bytes = the
// paper's load value trace size).
func LoadValueTraces(w *core.WET, tier core.Tier, emit func(stmtID int, s Sample)) (uint64, error) {
	return tracePass(w, func(st *ir.Stmt) bool { return st.Op == ir.OpLoad }, newCtx(w, tier).valueTrace, emit)
}

// tracePass runs one per-statement trace over every statement want selects,
// in statement order, and returns the total number of samples.
func tracePass(w *core.WET, want func(*ir.Stmt) bool, trace func(int, func(Sample)) (uint64, error),
	emit func(stmtID int, s Sample)) (total uint64, err error) {
	defer core.RecoverTyped(&err)
	for _, st := range w.Prog.Stmts {
		if !want(st) {
			continue
		}
		var one func(Sample)
		if emit != nil {
			one = func(s Sample) { emit(st.ID, s) }
		}
		n, err := trace(st.ID, one)
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// AddressTrace extracts the address trace of one load/store: for every
// execution, the address operand's value (resolved through the DD edge to
// its producer, per the paper: "addresses ... can be obtained by examining
// the <t,v> sequences of statements that produce the operands") plus the
// static displacement. A statement id outside the program returns a
// *StmtError. Deferred-decode failures surface as a *stream.DecodeError, not
// a panic.
func AddressTrace(w *core.WET, tier core.Tier, stmtID int, emit func(Sample)) (count uint64, err error) {
	defer core.RecoverTyped(&err)
	return newCtx(w, tier).addressTrace(stmtID, emit)
}

func (q *qctx) addressTrace(stmtID int, emit func(Sample)) (uint64, error) {
	w := q.w
	if err := checkStmt(w, stmtID); err != nil {
		return 0, err
	}
	st := w.Prog.Stmts[stmtID]
	if st.Op != ir.OpLoad && st.Op != ir.OpStore {
		return 0, fmt.Errorf("query: statement %s is not a memory access", st)
	}
	// The address register is always the first use; an immediate address
	// has no producer.
	opIdx, add := 0, st.Off
	if !st.A.IsReg {
		opIdx, add = -1, add+st.A.Imm
	}
	refs := w.StmtOcc[stmtID]
	srcs := q.occs(len(refs))
	for _, ref := range refs {
		n := w.Nodes[ref.Node]
		var runs []valRun
		if opIdx < 0 {
			// Constant address: one sample per execution.
			runs = []valRun{{}}
		}
		// Resolve through each incoming DD edge on the address operand; the
		// producer's value reader is shared by the runs it feeds.
		for _, ei := range n.InEdges[ref.Pos] {
			e := w.Edges[ei]
			if e.Kind != core.DD || e.OpIdx != opIdx {
				continue
			}
			r := valRun{}
			var err error
			if r.vr, err = q.valueReader(w.Nodes[e.SrcNode], e.SrcPos); err != nil {
				return 0, err
			}
			if !e.Inferable {
				r.lab = new([2]core.Window)
				r.lab[0], r.lab[1] = w.EdgeWindows(e, q.tier, false)
			}
			runs = append(runs, r)
		}
		if len(runs) > 0 {
			srcs = append(srcs, occSrc{ts: w.TSSeq(n, q.tier), runs: runs})
		}
	}
	return q.mergeSamples(srcs, add, w.Prog.MemWords-1, emit), q.err
}

// AddressTraces extracts the address trace of every load and store
// (Table 8). It returns the total number of samples.
func AddressTraces(w *core.WET, tier core.Tier, emit func(stmtID int, s Sample)) (uint64, error) {
	return tracePass(w, func(st *ir.Stmt) bool { return st.Op == ir.OpLoad || st.Op == ir.OpStore },
		newCtx(w, tier).addressTrace, emit)
}

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

// occCursor iterates one occurrence of an instruction: the node's timestamp
// sequence plus the group pattern resolve (ts, value) pairs in order.
type occCursor struct {
	w    *core.WET
	tier core.Tier
	node *core.Node
	pos  int
	ts   core.Seq
	pat  core.Seq
	uv   core.Seq
	ord  int
}

func newOccCursor(w *core.WET, tier core.Tier, ref core.StmtRef) (*occCursor, error) {
	n := w.Nodes[ref.Node]
	g := n.Groups[n.GroupOf[ref.Pos]]
	mi := g.ValMemberIndex(ref.Pos)
	if mi < 0 {
		return nil, fmt.Errorf("query: %s has no def port", n.Stmts[ref.Pos])
	}
	return &occCursor{
		w: w, tier: tier, node: n, pos: ref.Pos,
		ts:  w.TSSeq(n, tier),
		pat: w.PatternSeq(g, tier),
		uv:  w.UValSeq(g, mi, tier),
	}, nil
}

// next returns the next (ts, value) sample of this occurrence, or false.
func (c *occCursor) next() (Sample, bool) {
	if c.ord >= c.node.Execs {
		return Sample{}, false
	}
	ts := core.SeqAt(c.ts, c.ord)
	idx := core.SeqAt(c.pat, c.ord)
	v := int64(int32(core.SeqAt(c.uv, int(idx))))
	c.ord++
	return Sample{TS: ts, Value: v}, true
}

// ValueTrace extracts the complete value trace of one static statement in
// execution order, merging its occurrences across WET nodes by timestamp.
// This is the paper's "per instruction load value trace" when the statement
// is a load (Table 7). On a lazily loaded WET, a stream failing its deferred
// decode surfaces as a *stream.DecodeError, not a panic.
func ValueTrace(w *core.WET, tier core.Tier, stmtID int, emit func(Sample)) (count uint64, err error) {
	defer recoverTyped(&err)
	refs := w.StmtOcc[stmtID]
	cursors := make([]*occCursor, len(refs))
	for i, ref := range refs {
		if cursors[i], err = newOccCursor(w, tier, ref); err != nil {
			return 0, err
		}
	}
	return mergeSamples(len(cursors), func(i int) (Sample, bool) { return cursors[i].next() }, emit), nil
}

// mergeSamples emits the samples of k sources, each in timestamp order, in
// timestamp order overall, and returns how many there were; next(i) yields
// source i's next sample.
func mergeSamples(k int, next func(i int) (Sample, bool), emit func(Sample)) (count uint64) {
	src := make([]int, 0, k)
	heads := make([]Sample, 0, k)
	for i := 0; i < k; i++ {
		if h, ok := next(i); ok {
			src = append(src, i)
			heads = append(heads, h)
		}
	}
	for len(src) > 0 {
		// Pick the source with the smallest head timestamp (sources are
		// few: one per path containing the block, times its producers).
		best := 0
		for i := 1; i < len(src); i++ {
			if heads[i].TS < heads[best].TS {
				best = i
			}
		}
		if emit != nil {
			emit(heads[best])
		}
		count++
		if h, ok := next(src[best]); ok {
			heads[best] = h
		} else {
			last := len(src) - 1
			src[best], heads[best] = src[last], heads[last]
			src, heads = src[:last], heads[:last]
		}
	}
	return count
}

// LoadValueTraces extracts the value trace of every load instruction
// (Table 7). It returns the total number of samples (×4 bytes = the
// paper's load value trace size).
func LoadValueTraces(w *core.WET, tier core.Tier, emit func(stmtID int, s Sample)) (uint64, error) {
	var total uint64
	for _, st := range w.Prog.Stmts {
		if st.Op != ir.OpLoad {
			continue
		}
		n, err := ValueTrace(w, tier, st.ID, func(s Sample) {
			if emit != nil {
				emit(st.ID, s)
			}
		})
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// addrOperandIndex returns the dependence-operand index of the address
// operand of a load/store, or -1 when the address is an immediate.
func addrOperandIndex(st *ir.Stmt) int {
	if st.Op != ir.OpLoad && st.Op != ir.OpStore {
		return -1
	}
	if !st.A.IsReg {
		return -1
	}
	return 0 // the address register is always the first use
}

// addrRun is one (occurrence, edge) run of an address trace: the executions
// of one occurrence whose address operand one dependence edge supplied, in
// execution — hence timestamp — order. It decodes a chunk of samples at a
// time, reading the edge's labels as sequential batches.
type addrRun struct {
	ts       []uint32   // the occurrence's node timestamps, by ordinal
	vr       *valReader // the operand's producer; nil for an immediate address
	dst, src core.Seq   // the edge's labels; nil when both ordinals are the sample index
	n, done  int        // samples in the run, samples decoded so far
	buf      [walkChunk]Sample
	head     int // next unread sample of buf[:fill]
	fill     int
}

// next returns the run's next sample; add is the immediate address or the
// static displacement. d and s are scratch for one chunk of labels.
func (r *addrRun) next(add, mask int64, d, s *[walkChunk]uint32) (Sample, bool) {
	if r.head == r.fill {
		k := min(len(r.buf), r.n-r.done)
		if k == 0 {
			return Sample{}, false
		}
		if r.dst != nil {
			core.SeqNextN(r.dst, d[:k])
			core.SeqNextN(r.src, s[:k])
		}
		for i := 0; i < k; i++ {
			dord, sord := r.done+i, r.done+i
			if r.dst != nil {
				dord, sord = int(d[i]), int(s[i])
			}
			v := add
			if r.vr != nil {
				v += r.vr.at(sord)
			}
			r.buf[i] = Sample{TS: r.ts[dord], Value: v & mask}
		}
		r.done += k
		r.head, r.fill = 0, k
	}
	r.head++
	return r.buf[r.head-1], true
}

// AddressTrace extracts the address trace of one load/store: for every
// execution, the address operand's value (resolved through the DD edge to
// its producer, per the paper: "addresses ... can be obtained by examining
// the <t,v> sequences of statements that produce the operands") plus the
// static displacement. Each (occurrence, edge) pair contributes a run that is
// already in timestamp order, so the runs are merged, not sorted. Deferred-
// decode failures surface as a *stream.DecodeError, not a panic.
func AddressTrace(w *core.WET, tier core.Tier, stmtID int, emit func(Sample)) (count uint64, err error) {
	defer recoverTyped(&err)
	st := w.Prog.Stmts[stmtID]
	if st.Op != ir.OpLoad && st.Op != ir.OpStore {
		return 0, fmt.Errorf("query: statement %s is not a memory access", st)
	}
	mask := w.Prog.MemWords - 1
	opIdx := addrOperandIndex(st)
	add := st.Off
	if opIdx < 0 {
		add += st.A.Imm
	}
	q := newCtx(w, tier)
	var runs []*addrRun
	for _, ref := range w.StmtOcc[stmtID] {
		n := w.Nodes[ref.Node]
		ts := make([]uint32, n.Execs)
		core.SeqNextN(w.TSSeq(n, tier), ts)
		if opIdx < 0 {
			// Constant address: one sample per execution.
			runs = append(runs, &addrRun{ts: ts, n: n.Execs})
			continue
		}
		// Resolve through each incoming DD edge on the address operand; the
		// producer's value reader is shared by the runs it feeds.
		for _, ei := range n.InEdges[ref.Pos] {
			e := w.Edges[ei]
			if e.Kind != core.DD || e.OpIdx != opIdx {
				continue
			}
			vr, err := q.valueReader(w.Nodes[e.SrcNode], e.SrcPos)
			if err != nil {
				return 0, err
			}
			r := &addrRun{ts: ts, vr: vr, n: n.Execs}
			if !e.Inferable {
				r.dst, r.src = w.EdgeLabels(e, tier)
				r.n = r.dst.Len()
			}
			runs = append(runs, r)
		}
	}
	var d, s [walkChunk]uint32
	return mergeSamples(len(runs), func(i int) (Sample, bool) { return runs[i].next(add, mask, &d, &s) }, emit), nil
}

// AddressTraces extracts the address trace of every load and store
// (Table 8). It returns the total number of samples.
func AddressTraces(w *core.WET, tier core.Tier, emit func(stmtID int, s Sample)) (uint64, error) {
	var total uint64
	for _, st := range w.Prog.Stmts {
		if st.Op != ir.OpLoad && st.Op != ir.OpStore {
			continue
		}
		n, err := AddressTrace(w, tier, st.ID, func(s Sample) {
			if emit != nil {
				emit(st.ID, s)
			}
		})
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

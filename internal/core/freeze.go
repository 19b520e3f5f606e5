package core

import (
	"context"
	"fmt"
	"slices"

	"wet/internal/faultpoint"
	"wet/internal/pool"
	"wet/internal/stream"
	"wet/internal/trace"
)

// fpFreezeJob injects worker faults (typically panics) into the tier-2
// compression pool, rehearsing a buggy compression job.
var fpFreezeJob = faultpoint.New("core.freeze.job")

// SizeReport gives the storage cost of each WET component (bytes) at each
// compression level, in the units of the paper's Tables 1–3: 4 bytes per
// timestamp or value, 8 bytes per dependence label pair at tiers 0/1, and
// measured bits at tier 2.
type SizeReport struct {
	OrigTS    uint64 `json:"orig_ts"`
	OrigVals  uint64 `json:"orig_vals"`
	OrigEdges uint64 `json:"orig_edges"`
	T1TS      uint64 `json:"t1_ts"`
	T1Vals    uint64 `json:"t1_vals"`
	T1Edges   uint64 `json:"t1_edges"`
	T2TS      uint64 `json:"t2_ts"`
	T2Vals    uint64 `json:"t2_vals"`
	T2Edges   uint64 `json:"t2_edges"`

	// T1EdgesDD/T1EdgesCD split the tier-1 edge label bytes by dependence
	// kind (the paper lumps them; the split shows CD labels are the bulk
	// before inference and nearly free after).
	T1EdgesDD uint64 `json:"t1_edges_dd"`
	T1EdgesCD uint64 `json:"t1_edges_cd"`

	// InferableEdges / SharedEdges count edges whose tier-1 labels are
	// implied or all reused; OwnedEdges counts the rest. DiagonalEdges
	// counts the owned edges that store a diagonal stream (AggressiveEdges).
	InferableEdges int `json:"inferable_edges"`
	SharedEdges    int `json:"shared_edges"`
	OwnedEdges     int `json:"owned_edges"`
	DiagonalEdges  int `json:"diagonal_edges"`
	// Methods counts tier-2 method selections by name.
	Methods map[string]int `json:"methods,omitempty"`

	// CheckpointBytes is the in-memory cost of the tier-2 cursor checkpoint
	// indexes (seek accelerators). It is reported separately and NOT added
	// to T2Total: checkpoints are derived access structures, rebuilt on
	// Load, never serialized, and not part of the paper's compressed-size
	// metric. Recomputed by RestoreIndexes for deserialized WETs.
	CheckpointBytes uint64 `json:"checkpoint_bytes"`
}

// OrigTotal is the uncompressed WET size in bytes.
func (r *SizeReport) OrigTotal() uint64 { return r.OrigTS + r.OrigVals + r.OrigEdges }

// T1Total is the size after tier-1 (customized) compression.
func (r *SizeReport) T1Total() uint64 { return r.T1TS + r.T1Vals + r.T1Edges }

// T2Total is the fully compressed size.
func (r *SizeReport) T2Total() uint64 { return r.T2TS + r.T2Vals + r.T2Edges }

// Ratio returns a/b as a float (0 when b is 0).
func Ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// FreezeOptions tunes the builder and FreezeErr.
type FreezeOptions struct {
	// AggressiveEdges enables the [25]-style diagonal-edge reduction: edges
	// whose label pairs always have equal ordinals (but that fire on only
	// some executions, so full inference does not apply) store a single
	// ordinal stream instead of a pair. Off by default to keep the paper's
	// tier-1 exactly; the ablation bench quantifies the extra gain.
	AggressiveEdges bool
	// Workers bounds the tier-2 compression worker pool: 0 means
	// GOMAXPROCS, 1 forces the serial path. Every stream is an independent
	// compression job and the report is computed after the pool drains, so
	// the frozen WET — stream bytes, Methods census, and every SizeReport
	// counter — is byte-identical at any worker count.
	Workers int
	// EpochTS is the builder's epoch size (segment.go): the dynamic profile
	// is sealed and tier-2 compressed in epochs of EpochTS timestamps while
	// the interpreter runs, bounding peak memory by the epoch size instead
	// of the trace length. 0 (the default) is one epoch that keeps tier 1
	// until FreezeErr compresses it whole. Read by NewBuilder; FreezeErr
	// takes the epoch size from the WET.
	EpochTS uint32
	// Ctx cancels the freeze (and, through BuildStreaming, the whole
	// build) cooperatively: worker pools stop claiming jobs, the
	// interpreter's step loop aborts, and the context cause is returned.
	// Nil means never cancelled.
	Ctx context.Context
	// ByteBudget is a hard ceiling, in bytes, on the serialized container
	// size. A budget at or above the lossless floor changes nothing (the
	// output stays byte-identical to an unbudgeted freeze); below it the
	// freeze descends an ordered lossy ladder — drop uncompressed-value
	// group streams, then dependence-edge label streams, then widen node
	// timestamps to a sampled stride — until the measured size fits,
	// recording every rung in the WET's FidelityReport (budget.go). A
	// budget even the full ladder cannot reach fails the freeze with
	// *BudgetError. 0 means unlimited.
	ByteBudget uint64
}

// FreezeErr freezes a built WET. A one-epoch WET gets the tier-1 edge label
// reductions (paper §3.3) and every remaining stream compressed with the
// tier-2 selector (paper §4), fanned out over a worker pool (see
// FreezeOptions.Workers) so the result does not depend on the worker count;
// a segmented WET was reduced and compressed epoch by epoch as it was
// built. Both then get the size report and the byte budget. FreezeErr is
// idempotent. Cancellation (FreezeOptions.Ctx), an unreachable byte budget,
// and worker faults are returned as errors; on error the WET is left
// unfrozen and its tier-2 streams are released — no half-frozen hybrid
// survives the failure. A segmented WET, whose tier 2 is all it holds, is
// then to be discarded.
func (w *WET) FreezeErr(opts FreezeOptions) (*SizeReport, error) {
	if w.frozen {
		return w.report, nil
	}
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	var jobs []func(sc *stream.Scratch)
	if !w.Segmented() {
		jobs = w.reduce(opts.AggressiveEdges)
	}
	if err := runJobs(ctx, "freeze", jobs, opts.Workers, nil); err != nil {
		w.releasePartialTier2()
		return nil, err
	}

	// Byte budget: the container measure needs a frozen WET, so freeze
	// first, then descend the degradation ladder; on failure restore the
	// unfrozen contract (budget.go).
	r := w.sizeReport()
	w.frozen, w.report = true, r
	if err := w.applyByteBudget(opts); err != nil {
		w.frozen, w.report = false, nil
		w.Fidelity, w.TSStride = nil, 0
		w.releasePartialTier2()
		for _, n := range w.Nodes {
			for _, g := range n.Groups {
				g.Dropped = false
			}
		}
		for _, e := range w.Edges {
			e.Dropped = false
		}
		return nil, err
	}
	r.CheckpointBytes = w.checkpointBytes()
	return r, nil
}

// reduce applies the tier-1 edge label reductions to a one-epoch WET —
// inference, the diagonal form when aggressive, sharing — and returns one
// compression job per remaining whole-run stream, concurrency streams
// included. Each job writes only its own stream slot.
func (w *WET) reduce(aggressive bool) []func(sc *stream.Scratch) {
	var jobs []func(sc *stream.Scratch)
	for _, n := range w.Nodes {
		jobs = append(jobs, func(sc *stream.Scratch) { n.TSS = stream.CompressBestScratch(n.TS, sc) })
		for _, g := range n.Groups {
			jobs = append(jobs, func(sc *stream.Scratch) { g.PatternS = stream.CompressBestScratch(g.Pattern, sc) })
			g.UValS = make([]stream.Stream, len(g.UVals))
			for i := range g.UVals {
				jobs = append(jobs, func(sc *stream.Scratch) { g.UValS[i] = stream.CompressBestScratch(g.UVals[i], sc) })
			}
		}
	}
	reps := shareTable{}
	for i, e := range w.Edges {
		switch diag := diagonal(e.DstOrd, e.SrcOrd); {
		case diag && e.SrcNode == e.DstNode && e.Count == w.Nodes[e.DstNode].Execs:
			// Every execution's pair is <k,k>: implied by the node.
			e.Inferable = true
			e.DstOrd, e.SrcOrd = nil, nil
			continue
		case diag && aggressive:
			e.Diagonal = true
			e.SrcOrd = nil
		}
		if rep, ok := reps.intern(e, e.DstOrd, e.SrcOrd, e.Diagonal, i, -1); ok {
			e.SharedWith = rep.edge
			e.DstOrd, e.SrcOrd = nil, nil
			continue
		}
		jobs = append(jobs, func(sc *stream.Scratch) {
			e.DstS = stream.CompressBestScratch(e.DstOrd, sc)
			if !e.Diagonal {
				e.SrcS = stream.CompressBestScratch(e.SrcOrd, sc)
			}
		})
	}
	if w.Conc != nil {
		concFreezeJobs(w.Conc, &jobs)
	}
	return jobs
}

// diagonal reports whether every label pair (dst[k], src[k]) has equal
// ordinals: the test of both the inference and the diagonal reduction.
func diagonal(dst, src []uint32) bool { return slices.Equal(dst, src) }

// sizeReport walks the frozen WET once, in the units of the paper's Tables
// 1–3, over its whole-run streams or, on a segmented WET, its per-epoch
// segments. An edge's label units are its segments, or the edge itself on a
// one-epoch WET; a unit costs 8 bytes per pair at tier 1 (4 when diagonal,
// nothing when inferable or shared). Each node's timestamps, each group's
// values and each edge's labels round up to whole bytes once at tier 2.
// The walk allocates nothing per node, group or edge.
func (w *WET) sizeReport() *SizeReport {
	r := &SizeReport{
		OrigTS:    w.Raw.OrigNodeTSBytes(),
		OrigVals:  w.Raw.OrigNodeValBytes(),
		OrigEdges: w.Raw.OrigEdgeBytes(),
		Methods:   map[string]int{},
	}
	var bits uint64 // the current item's tier-2 bits
	add := func(s stream.Stream) {
		r.Methods[s.Name()]++
		bits += s.SizeBits()
	}
	take := func() uint64 {
		b := (bits + 7) / 8
		bits = 0
		return b
	}
	seg := w.Segmented()
	addAll := func(whole stream.Stream, segs []*LabelSeg) {
		if !seg {
			add(whole)
		}
		for _, sg := range segs {
			add(sg.S)
		}
	}
	for _, n := range w.Nodes {
		r.T1TS += uint64(n.Execs) * trace.TSBytes
		addAll(n.TSS, n.TSSegs)
		r.T2TS += take()
		for _, g := range n.Groups {
			if len(g.ValMembers) == 0 {
				continue
			}
			uniq := uint64(g.UniqueKeys())
			var patBits uint64
			if uniq > 1 {
				patBits = uint64(n.Execs) * uint64(bitsFor(uniq-1))
			}
			r.T1Vals += uniq*uint64(len(g.ValMembers))*trace.ValBytes + (patBits+7)/8
			for i := range g.ValMembers {
				addAll(at(g.UValS, i), at(g.UValSegs, i))
			}
			addAll(g.PatternS, g.PatSegs)
			r.T2Vals += take()
		}
	}
	for _, e := range w.Edges {
		if e.Inferable {
			r.InferableEdges++
			continue
		}
		units := e.Segs
		whole := EdgeSeg{N: e.Count, Diagonal: e.Diagonal, SharedWith: e.SharedWith, DstS: e.DstS, SrcS: e.SrcS}
		if !seg {
			units = []*EdgeSeg{&whole}
		}
		owned, shared, diag := 0, 0, false
		var t1 uint64
		for _, u := range units {
			switch {
			case u.Inferable:
			case u.SharedWith >= 0:
				shared++
			case u.Diagonal:
				owned, diag = owned+1, true
				t1 += uint64(u.N) * trace.TSBytes // one ordinal per pair
				add(u.DstS)
			default:
				owned++
				t1 += uint64(u.N) * trace.PairBytes
				add(u.DstS)
				add(u.SrcS)
			}
		}
		r.T1Edges += t1
		if e.Kind == DD {
			r.T1EdgesDD += t1
		} else {
			r.T1EdgesCD += t1
		}
		r.T2Edges += take()
		if owned == 0 && shared > 0 {
			r.SharedEdges++
		} else {
			r.OwnedEdges++
		}
		if diag {
			r.DiagonalEdges++
		}
	}
	return r
}

// dropTier1 releases every tier-1 label slice: a streamed build keeps tier 2
// only. A group keeps one (nil) unique-value slice per value member.
func (w *WET) dropTier1() {
	for _, n := range w.Nodes {
		n.TS = nil
		for _, g := range n.Groups {
			g.Pattern = nil
			clear(g.UVals)
		}
	}
	for _, e := range w.Edges {
		e.DstOrd, e.SrcOrd = nil, nil
	}
	if w.Conc != nil {
		for _, cs := range w.Conc.Streams() {
			cs.Raw = nil
		}
	}
}

// releasePartialTier2 drops whatever tier-2 streams a failed freeze had
// already built, returning the WET to its pre-Freeze (tier-1 only) state
// so the failure neither leaks the partial streams nor leaves a
// half-frozen hybrid behind.
func (w *WET) releasePartialTier2() {
	w.eachStream(func(s *stream.Stream) { *s = nil })
}

// eachStream visits every tier-2 stream slot of the WET: the whole-run
// stream and the per-epoch segments of each node's timestamps, each group's
// pattern and unique values, and each edge's labels, then the concurrency
// streams. A slot may hold nil (unfrozen, inferable, shared or dropped
// labels); the visitor may overwrite it.
func (w *WET) eachStream(visit func(*stream.Stream)) {
	segs := func(ss []*LabelSeg) {
		for _, sg := range ss {
			visit(&sg.S)
		}
	}
	for _, n := range w.Nodes {
		visit(&n.TSS)
		segs(n.TSSegs)
		for _, g := range n.Groups {
			visit(&g.PatternS)
			segs(g.PatSegs)
			for i := range g.UValS {
				visit(&g.UValS[i])
			}
			for _, ss := range g.UValSegs {
				segs(ss)
			}
		}
	}
	for _, e := range w.Edges {
		visit(&e.DstS)
		visit(&e.SrcS)
		for _, sg := range e.Segs {
			visit(&sg.DstS)
			visit(&sg.SrcS)
		}
	}
	if w.Conc != nil {
		for _, cs := range w.Conc.Streams() {
			visit(&cs.S)
		}
	}
}

// Report returns the size report (nil before FreezeErr).
func (w *WET) Report() *SizeReport { return w.report }

// checkpointBytes sums the cursor checkpoint index sizes over every tier-2
// stream. Checkpoints are derived (rebuilt on Load, never serialized), so
// this is recomputed rather than persisted.
func (w *WET) checkpointBytes() uint64 {
	var bits uint64
	w.eachStream(func(s *stream.Stream) {
		if *s != nil {
			bits += (*s).CheckpointBits()
		}
	})
	return (bits + 7) / 8
}

// PanicError is a panic recovered from a worker-pool job, surfaced as a
// typed error: the pool joins its goroutines and returns this instead of
// crashing the process. Value is the original panic value; when it is
// itself an error, Unwrap exposes it to errors.Is/As.
type PanicError struct {
	Op    string // whose job: "freeze", "seal", "materialize", "query job"
	Value any
}

func (e *PanicError) Error() string { return fmt.Sprintf("core: %s worker panic: %v", e.Op, e.Value) }

func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// recoverJob converts a job panic into a typed error slot assignment. A
// *stream.DecodeError travels as itself (it is a deferred Load failure
// that had to cross the no-error-return cursor API, not a bug), anything
// else as a *PanicError.
func recoverJob(op string, slot *error) {
	switch p := recover().(type) {
	case nil:
	case *stream.DecodeError:
		*slot = p
	default:
		*slot = &PanicError{Op: op, Value: p}
	}
}

// runJobs drains a tier-2 job list through pool.Run. Each worker owns one
// stream.Scratch, so the selection phase's predictor tables are borrowed
// from the size-keyed pools once per worker rather than once per candidate;
// scs is the caller's set (at least one per worker), or nil to borrow one
// for this call. A job panic (including an armed core.freeze.job failpoint)
// is recovered to a typed error naming op — never a crashed process or a
// leaked goroutine; cancellation and error order are the pool's contract.
func runJobs(ctx context.Context, op string, jobs []func(sc *stream.Scratch), workers int, scs []*stream.Scratch) error {
	if scs == nil {
		scs = newScratches(pool.Workers(workers, len(jobs)))
		defer releaseScratches(scs)
	}
	return pool.Run(ctx, workers, len(jobs), func(worker, j int) (err error) {
		defer recoverJob(op, &err)
		if err := fpFreezeJob.Hit(); err != nil {
			return err
		}
		jobs[j](scs[worker])
		return nil
	})
}

func newScratches(n int) []*stream.Scratch {
	scs := make([]*stream.Scratch, n)
	for i := range scs {
		scs[i] = stream.NewScratch()
	}
	return scs
}

func releaseScratches(scs []*stream.Scratch) {
	for _, sc := range scs {
		sc.Release()
	}
}

// bitsFor returns the number of bits needed to represent v.
func bitsFor(v uint64) int {
	n := 0
	for v > 0 {
		n++
		v >>= 1
	}
	if n == 0 {
		n = 1
	}
	return n
}

// shareTable finds label sequences that repeat between edges with the same
// endpoints and kind (paper §3.3, label sharing): the whole-run freeze asks
// it once per edge, the epoch sealer once per edge segment. The first
// sequence interned is the representative of every identical later one, so
// asking in edge order gives a representative the smaller edge index.
type shareTable map[shareKey][]shareRep

type shareKey struct {
	srcNode, dstNode int
	kind             EdgeKind
	h                uint64
}

type shareRep struct {
	dst, src  []uint32
	diag      bool
	edge, seg int
}

// intern returns the representative holding exactly the labels (dst, src) of
// e — diagonal sequences carry dst only and match only diagonal ones — or
// records them as the representative (edge, seg) and reports false.
func (t shareTable) intern(e *Edge, dst, src []uint32, diag bool, edge, seg int) (shareRep, bool) {
	if diag {
		src = dst
	}
	h := uint64(len(dst))
	for i := range dst {
		h = mix(h, uint64(dst[i])|uint64(src[i])<<32)
	}
	k := shareKey{e.SrcNode, e.DstNode, e.Kind, h}
	for _, r := range t[k] {
		if r.diag == diag && slices.Equal(r.dst, dst) && (diag || slices.Equal(r.src, src)) {
			return r, true
		}
	}
	t[k] = append(t[k], shareRep{dst, src, diag, edge, seg})
	return shareRep{}, false
}

// String renders the report as a small table.
func (r *SizeReport) String() string {
	line := func(name string, o, t1, t2 uint64) string {
		return fmt.Sprintf("%-8s orig=%d B  tier1=%d B (%.1fx)  tier2=%d B (%.1fx)\n",
			name, o, t1, Ratio(o, t1), t2, Ratio(o, t2))
	}
	s := line("ts", r.OrigTS, r.T1TS, r.T2TS)
	s += line("vals", r.OrigVals, r.T1Vals, r.T2Vals)
	s += line("edges", r.OrigEdges, r.T1Edges, r.T2Edges)
	s += line("total", r.OrigTotal(), r.T1Total(), r.T2Total())
	s += fmt.Sprintf("edges: %d owned, %d inferable, %d shared (tier-1 labels: %d B data, %d B control)\n",
		r.OwnedEdges, r.InferableEdges, r.SharedEdges, r.T1EdgesDD, r.T1EdgesCD)
	s += fmt.Sprintf("cursor checkpoints: %d B (in-memory seek index, excluded from tier-2 size)\n", r.CheckpointBytes)
	return s
}

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

	// InferableEdges / SharedEdges count tier-1 label eliminations;
	// DiagonalEdges counts the AggressiveEdges reduction.
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

	// Degradation records what FreezeOptions.MemBudget traded away (nil
	// when no budget was set or nothing degraded). In-memory only: it
	// describes how this freeze ran, not the frozen bytes, so wetio does
	// not serialize it.
	Degradation *DegradationReport `json:"degradation,omitempty"`
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

// FreezeOptions tunes FreezeErr.
type FreezeOptions struct {
	// NoShare disables non-local label sharing (ablation).
	NoShare bool
	// NoInfer disables local label inference (ablation).
	NoInfer bool
	// AggressiveEdges enables the [25]-style diagonal-edge reduction: edges
	// whose label pairs always have equal ordinals (but that fire on only
	// some executions, so full inference does not apply) store a single
	// ordinal stream instead of a pair. Off by default to keep the paper's
	// tier-1 exactly; the ablation bench quantifies the extra gain.
	AggressiveEdges bool
	// NoGrouping disables the tier-1 value grouping for size accounting
	// (ablation): tier-1 value labels are charged at the raw per-def-
	// execution cost, and tier-2 sizes each statement's full value
	// sequence (materialized from the groups) instead of UVals + Pattern.
	// The grouped streams are still built, once each, for queries.
	NoGrouping bool
	// SkipFullSizing, with NoGrouping, skips the sizing-only pass over the
	// materialized full value sequences (T2Vals and the value Methods
	// entries are then omitted from the report). Use it when the ablation
	// caller only needs a queryable ungrouped WET, not its size.
	SkipFullSizing bool
	// Workers bounds the tier-2 compression worker pool: 0 means
	// GOMAXPROCS, 1 forces the serial path. Every stream is an independent
	// compression job and the report is reduced in job order after the
	// pool drains, so the frozen WET — stream bytes, Methods census, and
	// every SizeReport counter — is byte-identical at any worker count.
	Workers int
	// CheckpointK sets the cursor checkpoint spacing of the tier-2 streams:
	// a cursor Seek costs O(CheckpointK) steps instead of O(distance).
	// 0 means automatic (stream.DefaultCheckpointK, widened so checkpoint
	// state stays under 25% of a stream's payload); negative disables
	// interior checkpoints (seeks fall back to stepping from an endpoint).
	// Checkpoints never change stream bytes or SizeBits — only the
	// CheckpointBytes line of the report and seek latency.
	CheckpointK int
	// EpochTS selects the epoch-segmented streaming pipeline (segment.go):
	// the dynamic profile is sealed and tier-2 compressed in epochs of
	// EpochTS timestamps while the interpreter runs, bounding peak memory
	// by the epoch size instead of the trace length. 0 (the default) keeps
	// the single-epoch behavior — build fully, then FreezeErr — whose output
	// is byte-identical to the pre-streaming pipeline. Only consulted by
	// BuildStreaming/NewStreamingBuilder; FreezeErr itself ignores it.
	EpochTS uint32
	// Ctx cancels the freeze (and, through BuildStreaming, the whole
	// build) cooperatively: worker pools stop claiming jobs, the
	// interpreter's step loop aborts, and the context cause is returned.
	// Nil means never cancelled.
	Ctx context.Context
	// MemBudget is a soft ceiling, in bytes, on the freeze's working set.
	// When the planned configuration would exceed it the pipeline degrades
	// instead of failing — parallel workers fall back to serial, a
	// streaming build's epoch shrinks toward minEpochTS — and the rungs
	// taken are reported in SizeReport.Degradation. 0 means unlimited.
	MemBudget uint64
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

// FreezeErr applies the tier-1 edge label reductions (paper §3.3),
// compresses every remaining stream with the tier-2 selector (paper §4), and
// computes the size report. Tier-2 compression fans out over a worker pool
// (see FreezeOptions.Workers); the result does not depend on the worker
// count. FreezeErr is idempotent. Cancellation (FreezeOptions.Ctx), an
// unreachable byte budget, and worker faults are returned as errors; on
// error the WET is left unfrozen and every partially built tier-2 stream is
// released — no half-frozen hybrid survives the failure.
func (w *WET) FreezeErr(opts FreezeOptions) (*SizeReport, error) {
	if w.frozen {
		return w.report, nil
	}
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	var deg *DegradationReport
	opts, deg = planFreezeBudget(opts)
	r := &SizeReport{Methods: map[string]int{}, Degradation: deg}
	r.OrigTS = w.Raw.OrigNodeTSBytes()
	r.OrigVals = w.Raw.OrigNodeValBytes()
	r.OrigEdges = w.Raw.OrigEdgeBytes()

	// --- Edges: tier-1 label elimination and sharing.
	reps := shareTable{}
	for i, e := range w.Edges {
		if !opts.NoInfer && e.SrcNode == e.DstNode && e.Count == w.Nodes[e.DstNode].Execs {
			same := true
			for k := range e.DstOrd {
				if e.DstOrd[k] != e.SrcOrd[k] || e.DstOrd[k] != uint32(k) {
					same = false
					break
				}
			}
			if same {
				e.Inferable = true
				e.DstOrd, e.SrcOrd = nil, nil
				r.InferableEdges++
				continue
			}
		}
		if opts.AggressiveEdges && !e.Diagonal {
			diag := true
			for k := range e.DstOrd {
				if e.DstOrd[k] != e.SrcOrd[k] {
					diag = false
					break
				}
			}
			if diag {
				e.Diagonal = true
				e.SrcOrd = nil
				r.DiagonalEdges++
			}
		}
		if opts.NoShare {
			r.OwnedEdges++
			continue
		}
		if rep, ok := reps.intern(e, e.DstOrd, e.SrcOrd, e.Diagonal, i, -1); ok {
			e.SharedWith = rep.edge
			e.DstOrd, e.SrcOrd = nil, nil
			r.SharedEdges++
		} else {
			r.OwnedEdges++
		}
	}

	// --- Tier 2: every remaining stream is an independent compression job.
	// Jobs fan out over a bounded worker pool; each job writes only its own
	// stream slots. Accounting (Methods census, T2* counters) happens in
	// the applies list, run serially in job order after the pool drains, so
	// the report never depends on completion order.
	var jobs []func(sc *stream.Scratch)
	var applies []func()
	ck := opts.CheckpointK

	// --- Sizes: timestamps.
	for _, n := range w.Nodes {
		n := n
		r.T1TS += uint64(n.Execs) * trace.TSBytes
		jobs = append(jobs, func(sc *stream.Scratch) {
			n.TSS = stream.CompressBestScratchK(n.TS, sc, ck)
		})
		applies = append(applies, func() {
			r.Methods[n.TSS.Name()]++
			r.T2TS += (n.TSS.SizeBits() + 7) / 8
		})
	}

	// --- Sizes: values (groups).
	if opts.NoGrouping {
		// Ablation: no customized value compression. Tier-1 stores every
		// def-port execution's value verbatim; tier-2 is charged for the
		// full per-statement-occurrence sequences, sized without building
		// throwaway streams. Queries still need the grouped streams, each
		// compressed exactly once.
		r.T1Vals = w.Raw.OrigNodeValBytes()
		for _, n := range w.Nodes {
			for _, g := range n.Groups {
				g := g
				jobs = append(jobs, func(sc *stream.Scratch) {
					g.PatternS = stream.CompressBestScratchK(g.Pattern, sc, ck)
				})
				g.UValS = make([]stream.Stream, len(g.UVals))
				for mi := range g.UVals {
					mi := mi
					jobs = append(jobs, func(sc *stream.Scratch) {
						g.UValS[mi] = stream.CompressBestScratchK(g.UVals[mi], sc, ck)
					})
					if opts.SkipFullSizing {
						continue
					}
					res := &struct {
						bits uint64
						name string
					}{}
					jobs = append(jobs, func(sc *stream.Scratch) {
						full := make([]uint32, len(g.Pattern))
						for k, idx := range g.Pattern {
							full[k] = g.UVals[mi][idx]
						}
						res.bits, res.name = stream.SizeBest(full, sc)
					})
					applies = append(applies, func() {
						r.Methods[res.name]++
						r.T2Vals += (res.bits + 7) / 8
					})
				}
			}
		}
	}
	for _, n := range w.Nodes {
		if opts.NoGrouping {
			break
		}
		for _, g := range n.Groups {
			g := g
			if len(g.ValMembers) == 0 && len(g.Pattern) == 0 {
				continue
			}
			uniq := uint64(g.UniqueKeys())
			var patBits uint64
			if uniq > 1 {
				patBits = uint64(len(g.Pattern)) * uint64(bitsFor(uniq-1))
			}
			var uvalBytes uint64
			for _, uv := range g.UVals {
				uvalBytes += uint64(len(uv)) * trace.ValBytes
			}
			if len(g.ValMembers) > 0 {
				r.T1Vals += uvalBytes + (patBits+7)/8
			}
			// Tier 2: compress the pattern and each unique-value array.
			jobs = append(jobs, func(sc *stream.Scratch) {
				g.PatternS = stream.CompressBestScratchK(g.Pattern, sc, ck)
			})
			g.UValS = make([]stream.Stream, len(g.UVals))
			for i := range g.UVals {
				i := i
				jobs = append(jobs, func(sc *stream.Scratch) {
					g.UValS[i] = stream.CompressBestScratchK(g.UVals[i], sc, ck)
				})
			}
			applies = append(applies, func() {
				var t2 uint64
				for i := range g.UValS {
					r.Methods[g.UValS[i].Name()]++
					t2 += g.UValS[i].SizeBits()
				}
				if len(g.ValMembers) > 0 {
					r.Methods[g.PatternS.Name()]++
					t2 += g.PatternS.SizeBits()
					r.T2Vals += (t2 + 7) / 8
				}
			})
		}
	}

	// --- Sizes: edges.
	for _, e := range w.Edges {
		e := e
		if e.Inferable || e.SharedWith >= 0 {
			continue
		}
		labelBytes := uint64(e.Count) * trace.PairBytes
		if e.Diagonal {
			labelBytes = uint64(e.Count) * trace.TSBytes // one ordinal per pair
		}
		r.T1Edges += labelBytes
		if e.Kind == DD {
			r.T1EdgesDD += labelBytes
		} else {
			r.T1EdgesCD += labelBytes
		}
		jobs = append(jobs, func(sc *stream.Scratch) {
			e.DstS = stream.CompressBestScratchK(e.DstOrd, sc, ck)
			if !e.Diagonal {
				e.SrcS = stream.CompressBestScratchK(e.SrcOrd, sc, ck)
			}
		})
		applies = append(applies, func() {
			r.Methods[e.DstS.Name()]++
			if e.Diagonal {
				r.T2Edges += (e.DstS.SizeBits() + 7) / 8
			} else {
				r.Methods[e.SrcS.Name()]++
				r.T2Edges += (e.DstS.SizeBits() + e.SrcS.SizeBits() + 15) / 8
			}
		})
	}

	// --- Concurrency streams (outside the paper's size tables; conc.go).
	if w.Conc != nil {
		concFreezeJobs(w.Conc, ck, &jobs)
	}

	if err := runJobs(ctx, "freeze", jobs, opts.Workers, nil); err != nil {
		w.releasePartialTier2()
		return nil, err
	}
	for _, apply := range applies {
		apply()
	}
	r.CheckpointBytes = w.checkpointBytes()

	// Byte budget: the container measure needs a frozen WET, so freeze
	// first, then descend the degradation ladder; on failure restore the
	// unfrozen contract (budget.go).
	w.frozen = true
	w.report = r
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

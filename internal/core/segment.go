package core

import (
	"context"
	"fmt"
	"math"

	"wet/internal/faultpoint"
	"wet/internal/interp"
	"wet/internal/pool"
	"wet/internal/stream"
	"wet/internal/trace"
)

// fpSealEpoch injects faults at the moment an epoch closes — the natural
// place for a deadline to expire mid-build or a sealer bug to surface.
var fpSealEpoch = faultpoint.New("core.seal.epoch")

// The epoch-segmented streaming pipeline: instead of holding the whole
// uncompressed tier-1 trace until the run ends, the builder seals the
// dynamic profile into fixed-size timestamp epochs (FreezeOptions.EpochTS
// timestamps each). Epoch e covers global timestamps (e*E, (e+1)*E]; as the
// interpreter crosses an epoch boundary the epoch's label slices are tier-2
// compressed (fanned over the worker pool) before execution resumes, so peak
// memory is bounded by exactly one epoch of tier-1 labels — not by trace
// length.
//
// Segment storage keeps every cross-segment invariant the single-epoch
// representation has:
//
//   - Node timestamps are stored LOCAL to the epoch (global = epoch base +
//     local, base = epoch*EpochTS); everything else stays GLOBAL.
//   - Pattern entries index the run-global unique-value table (the key map
//     lives for the whole run), and each unique-value segment holds the
//     values first observed in its epoch, so concatenating segments
//     reproduces the run-global discovery order exactly.
//   - Edge labels live in the segment of their use-side (destination)
//     timestamp — a cross-epoch dependence is recorded where it is consumed,
//     and its source ordinal (a run-global execution ordinal) may point into
//     any earlier epoch.
//
// Because concatenation reproduces the exact single-epoch sequences, the
// federated cursors (fedseq.go) make every query return identical results on
// a segmented and a single-epoch WET of the same run.

// LabelSeg is one epoch's frozen slice of a label sequence (timestamps,
// group pattern, or unique values).
type LabelSeg struct {
	Epoch int
	N     int
	S     stream.Stream
}

// EdgeSeg is one epoch's slice of a dependence edge's label pairs, carrying
// the per-epoch forms of the §3.3 reductions: Inferable segments cover every
// node execution of their epoch with <k,k> pairs starting at RampBase and
// store nothing; shared segments reuse the identical labels of
// Edges[SharedWith].Segs[SharedSeg] (the representative always has a smaller
// edge index); Diagonal segments store only the destination ordinals.
type EdgeSeg struct {
	Epoch int
	N     int

	Inferable bool
	RampBase  uint32
	Diagonal  bool

	SharedWith int // owning edge index, or -1
	SharedSeg  int // segment index within the owner, or -1

	DstS, SrcS stream.Stream
}

// sealEpoch freezes every label appended during the epoch that just closed:
// it queues the epoch's tier-1 slices for compression, decides the
// per-segment edge reductions while the uncompressed labels are still at
// hand, and runs one compression job per surviving stream through runJobs
// before returning: the interpreter waits for the seal, so no
// sealed-but-uncompressed epoch ever piles up behind it. A failed or
// cancelled job fails the build right here. The sealed slices then take the
// next epoch's appends (reuse): no encoder keeps its input.
func (b *Builder) sealEpoch(epoch int) {
	if err := fpSealEpoch.Hit(); err != nil {
		b.fail(err)
		return
	}
	base := uint32(epoch) * b.epochTS
	queue := func(segs *[]*LabelSeg, vals []uint32) {
		seg := &LabelSeg{Epoch: epoch, N: len(vals)}
		*segs = append(*segs, seg)
		b.jobs = append(b.jobs, func(sc *stream.Scratch) { seg.S = stream.CompressBestScratch(vals, sc) })
	}

	for _, n := range b.w.Nodes {
		if ts := n.TS; len(ts) > 0 {
			for i := range ts {
				ts[i] -= base
			}
			queue(&n.TSSegs, ts)
		}
		n.TS = reuse(n.TS)
		for _, g := range n.Groups {
			if len(g.Pattern) > 0 {
				queue(&g.PatSegs, g.Pattern)
			}
			g.Pattern = reuse(g.Pattern)
			if g.UValSegs == nil && len(g.ValMembers) > 0 {
				g.UValSegs = make([][]*LabelSeg, len(g.ValMembers))
			}
			for mi, uv := range g.UVals {
				if len(uv) > 0 {
					queue(&g.UValSegs[mi], uv)
				}
				g.UVals[mi] = reuse(uv)
			}
		}
	}

	b.sealEpochEdges(epoch)

	err := runJobs(b.fopts.Ctx, "seal", b.jobs, b.fopts.Workers, b.scratch)
	clear(b.jobs) // the closures pin the epoch's label slices
	b.jobs = b.jobs[:0]
	if err != nil {
		b.fail(err)
		return
	}

	// Advance the per-node sealed-execution watermark only after the edge
	// pass: segment inference needs the epoch's starting ordinal.
	for _, n := range b.w.Nodes {
		n.sealedExecs = n.Execs
	}
}

// reuse returns the buffer a label slice takes the next epoch's appends in:
// the sealed slice emptied when it held labels, nil when it held none. A
// buffer is kept only while its item fires in every epoch, so the builder
// holds buffers only for the items that fired in the last sealed epoch.
func reuse(s []uint32) []uint32 {
	if len(s) == 0 {
		return nil
	}
	return s[:0]
}

// sealEpochEdges applies the per-segment §3.3 reductions to every edge that
// fired during the epoch and queues the surviving label streams for
// compression. Sharing is per-epoch and per (src node, dst node, kind):
// identical uncompressed label slices are detected in edge-index order, so a
// representative always has a smaller index than its sharers.
func (b *Builder) sealEpochEdges(epoch int) {
	b.settleFixed()
	reps := shareTable{}

	for ei, e := range b.w.Edges {
		r := &b.ramps[ei]
		if r.n == 0 && len(e.DstOrd) == 0 {
			e.DstOrd, e.SrcOrd = nil, nil
			continue
		}
		seg := &EdgeSeg{Epoch: epoch, N: int(r.n) + len(e.DstOrd), SharedWith: -1, SharedSeg: -1}
		e.Segs = append(e.Segs, seg)

		// Per-segment inference: the edge fired on every execution of its
		// node this epoch and every pair is <k,k> along the epoch's ordinal
		// ramp — which is exactly what an unbroken ramp count records.
		if !r.stored {
			node := b.w.Nodes[e.DstNode]
			if int(r.n) == node.Execs-node.sealedExecs {
				seg.Inferable = true
				seg.RampBase = uint32(node.sealedExecs)
				r.n = 0
				e.DstOrd, e.SrcOrd = nil, nil
				continue
			}
			b.materialise(ei, uint32(node.sealedExecs), 0)
		}
		dst, src := e.DstOrd, e.SrcOrd
		e.DstOrd, e.SrcOrd = dst[:0], src[:0]
		r.stored = e.SrcNode != e.DstNode
		if b.fopts.AggressiveEdges {
			diag := true
			for k := range dst {
				if dst[k] != src[k] {
					diag = false
					break
				}
			}
			if diag {
				seg.Diagonal = true
				src = nil
			}
		}
		if rep, ok := reps.intern(e, dst, src, seg.Diagonal, ei, len(e.Segs)-1); ok {
			seg.SharedWith, seg.SharedSeg = rep.edge, rep.seg
			seg.Diagonal = false
			continue
		}
		dstBuf, srcBuf, diag := dst, src, seg.Diagonal
		b.jobs = append(b.jobs, func(sc *stream.Scratch) {
			seg.DstS = stream.CompressBestScratch(dstBuf, sc)
			if !diag {
				seg.SrcS = stream.CompressBestScratch(srcBuf, sc)
			}
		})
	}
}

// finishStreaming completes a streaming build after the interpreter stops:
// seals the trailing partial epoch and promotes whole-run inferable edges.
func (b *Builder) finishStreaming() error {
	e := b.epochTS
	if b.time > 0 && b.time%e != 0 {
		b.sealEpoch(int(b.time / e))
	}
	if b.err != nil {
		return b.err
	}
	b.countEdges()
	w := b.w
	w.EpochTS = e
	w.Epochs = int((uint64(b.time) + uint64(e) - 1) / uint64(e))

	// Concurrency streams are whole-run (not epoch-segmented; see conc.go),
	// so they compress here, after the last seal. A streamed build keeps
	// no tier 1: dropTier1 releases them and the buffers the seals kept for
	// a next epoch.
	if w.Conc != nil {
		var jobs []func(sc *stream.Scratch)
		concFreezeJobs(w.Conc, &jobs)
		if err := runJobs(b.fopts.Ctx, "freeze", jobs, b.fopts.Workers, b.scratch); err != nil {
			return err
		}
	}
	w.dropTier1()

	// Whole-run inference: an edge whose every segment is inferable and
	// that fired on every node execution carries exactly the labels the
	// single-epoch Freeze drops — promote it so the edge-level fast paths
	// (queries, semantic verifier) apply unchanged.
	for _, ed := range w.Edges {
		if ed.SrcNode != ed.DstNode || ed.Count != w.Nodes[ed.DstNode].Execs || len(ed.Segs) == 0 {
			continue
		}
		all := true
		for _, sg := range ed.Segs {
			if !sg.Inferable {
				all = false
				break
			}
		}
		if all {
			ed.Inferable = true
			ed.Segs = nil
		}
	}
	return nil
}

// streamingReport assembles the SizeReport of a streamed WET. Tier-1 costs
// are charged per segment (an epoch-local inference or share drops only its
// own epoch's labels), so tier-1 edge bytes can differ from a single-epoch
// freeze of the same run; tier-2 sizes are the measured stream bits either
// way. Deterministic: nodes, groups, and edges are walked in index order
// after the last seal.
func (w *WET) streamingReport(opts FreezeOptions) *SizeReport {
	r := &SizeReport{Methods: map[string]int{}}
	r.OrigTS = w.Raw.OrigNodeTSBytes()
	r.OrigVals = w.Raw.OrigNodeValBytes()
	r.OrigEdges = w.Raw.OrigEdgeBytes()

	addSeg := func(sg *LabelSeg) {
		r.Methods[sg.S.Name()]++
	}
	for _, n := range w.Nodes {
		r.T1TS += uint64(n.Execs) * trace.TSBytes
		var bits uint64
		for _, sg := range n.TSSegs {
			addSeg(sg)
			bits += sg.S.SizeBits()
		}
		r.T2TS += (bits + 7) / 8

		for _, g := range n.Groups {
			if len(g.ValMembers) == 0 && len(g.PatSegs) == 0 {
				continue
			}
			uniq := uint64(g.UniqueKeys())
			var patBits uint64
			if uniq > 1 {
				patBits = uint64(n.Execs) * uint64(bitsFor(uniq-1))
			}
			if len(g.ValMembers) > 0 {
				r.T1Vals += uniq*uint64(len(g.ValMembers))*trace.ValBytes + (patBits+7)/8
			}
			var t2 uint64
			for _, segs := range g.UValSegs {
				for _, sg := range segs {
					addSeg(sg)
					t2 += sg.S.SizeBits()
				}
			}
			if len(g.ValMembers) > 0 {
				for _, sg := range g.PatSegs {
					addSeg(sg)
					t2 += sg.S.SizeBits()
				}
				r.T2Vals += (t2 + 7) / 8
			}
		}
	}

	for _, e := range w.Edges {
		if e.Inferable {
			r.InferableEdges++
			continue
		}
		ownedSegs, sharedSegs := 0, 0
		var t1 uint64
		var t2bits uint64
		for _, sg := range e.Segs {
			switch {
			case sg.Inferable:
			case sg.SharedWith >= 0:
				sharedSegs++
			default:
				ownedSegs++
				if sg.Diagonal {
					t1 += uint64(sg.N) * trace.TSBytes
					r.Methods[sg.DstS.Name()]++
					t2bits += sg.DstS.SizeBits()
				} else {
					t1 += uint64(sg.N) * trace.PairBytes
					r.Methods[sg.DstS.Name()]++
					r.Methods[sg.SrcS.Name()]++
					t2bits += sg.DstS.SizeBits() + sg.SrcS.SizeBits()
				}
				if sg.Diagonal {
					r.DiagonalEdges++
				}
			}
		}
		r.T1Edges += t1
		if e.Kind == DD {
			r.T1EdgesDD += t1
		} else {
			r.T1EdgesCD += t1
		}
		r.T2Edges += (t2bits + 7) / 8
		if ownedSegs == 0 && sharedSegs > 0 {
			r.SharedEdges++
		} else {
			r.OwnedEdges++
		}
	}
	r.CheckpointBytes = w.checkpointBytes()
	return r
}

// NewStreamingBuilder returns a builder that seals and tier-2 compresses
// the profile in epochs of opts.EpochTS timestamps while events arrive (see
// the package comment above). The returned builder implements trace.Sink
// like NewBuilder; FinishStreaming must be called instead of Finish.
// A streamed build keeps no tier 1: the per-epoch tier-1 slices are
// released as each epoch seals. The value-grouping ablation (NoGrouping)
// is incompatible with streaming.
func NewStreamingBuilder(st *interp.Static, opts FreezeOptions) (*Builder, error) {
	if opts.EpochTS == 0 {
		return nil, fmt.Errorf("core: streaming builder requires EpochTS > 0")
	}
	if opts.NoGrouping {
		return nil, fmt.Errorf("core: NoGrouping is a single-epoch ablation; not available when streaming")
	}
	if opts.Ctx == nil {
		opts.Ctx = context.Background()
	}
	b := NewBuilder(st)
	b.epochTS = opts.EpochTS
	b.fopts = opts
	b.scratch = newScratches(pool.Workers(opts.Workers, math.MaxInt))
	return b, nil
}

// FinishStreaming validates and returns the streamed WET, frozen and
// segmented, with its Raw stats; BuildStreaming attaches the size report.
func (b *Builder) FinishStreaming() (*WET, error) {
	if b.epochTS == 0 {
		return nil, fmt.Errorf("core: FinishStreaming on a non-streaming builder")
	}
	if b.err != nil {
		return nil, b.err
	}
	if b.nPend != 0 {
		return nil, fmt.Errorf("core: %d statement events not covered by a path", b.nPend)
	}
	w := b.w
	w.Time = b.time
	if err := b.finishStreaming(); err != nil {
		return nil, err
	}
	w.indexEdges()
	w.Raw = b.rawStats()
	b.pathLoc = nil
	return w, nil
}

// BuildStreaming runs the program and constructs its epoch-segmented,
// frozen WET in one call (the streaming counterpart of Build + Freeze).
// When opts.EpochTS is 0 it falls back to exactly the single-epoch path, so
// its output — including Save bytes — is identical to the pre-streaming
// pipeline.
func BuildStreaming(st *interp.Static, ropts interp.Options, opts FreezeOptions) (*WET, *SizeReport, *interp.Result, error) {
	return buildStreaming(st, ropts, opts, false)
}

// BuildStreamingChecked is BuildStreaming with the tier-1 value-grouping
// determinism re-verification enabled on every node execution (the
// streaming counterpart of setting Builder.CheckDeterminism; slower).
func BuildStreamingChecked(st *interp.Static, ropts interp.Options, opts FreezeOptions) (*WET, *SizeReport, *interp.Result, error) {
	return buildStreaming(st, ropts, opts, true)
}

func buildStreaming(st *interp.Static, ropts interp.Options, opts FreezeOptions, check bool) (*WET, *SizeReport, *interp.Result, error) {
	// One cancellable context spans the whole pipeline: the caller's
	// deadline (ropts.Ctx / opts.Ctx) cancels it from outside, and a
	// builder or seal failure cancels it from inside so the interpreter
	// aborts within one ctx-check window instead of running to completion
	// against a dead build.
	parent := ropts.Ctx
	if parent == nil {
		parent = opts.Ctx
	}
	if parent == nil {
		parent = context.Background()
	}
	bctx, cancel := context.WithCancelCause(parent)
	defer cancel(nil)
	ropts.Ctx = bctx

	var b *Builder
	if opts.EpochTS == 0 {
		b = NewBuilder(st)
	} else {
		sopts := opts
		sopts.Ctx = bctx
		var err error
		b, err = NewStreamingBuilder(st, sopts)
		if err != nil {
			return nil, nil, nil, err
		}
	}
	defer releaseScratches(b.scratch)
	b.CheckDeterminism = check
	b.abort = cancel
	ropts.Sink = b
	res, err := runInterp(st, ropts)
	if b.err != nil {
		// The builder aborted the run; its error is the root cause, not
		// the cancellation the interpreter observed.
		err = b.err
	}
	if err != nil {
		return nil, nil, res, err
	}
	if opts.EpochTS == 0 {
		w, err := b.Finish()
		if err != nil {
			return nil, nil, res, err
		}
		fopts := opts
		fopts.Ctx = parent
		rep, err := w.FreezeErr(fopts)
		if err != nil {
			return nil, nil, res, err
		}
		return w, rep, res, nil
	}
	w, err := b.FinishStreaming()
	if err != nil {
		return nil, nil, res, err
	}
	rep := w.streamingReport(opts)
	w.frozen = true
	w.report = rep
	// Byte budget on the segmented container: same ladder as the
	// single-epoch freeze minus the timestamp-widening rung (v4 segments
	// store epoch-local timestamps; see budget.go). The failed-build WET is
	// discarded by the caller, so only the frozen flag needs restoring.
	if err := w.applyByteBudget(opts); err != nil {
		w.frozen, w.report = false, nil
		return nil, nil, res, err
	}
	return w, rep, res, nil
}

// runInterp runs the interpreter with a recover boundary that converts an
// armed-failpoint panic escaping the sink (e.g. a panic-action
// core.seal.epoch) into its typed error; any other panic is a real bug
// and propagates.
func runInterp(st *interp.Static, ropts interp.Options) (res *interp.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			fe, ok := p.(*faultpoint.Error)
			if !ok {
				panic(p)
			}
			err = fe
		}
	}()
	return interp.Run(st, ropts)
}

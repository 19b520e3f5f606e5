package core

import (
	"context"

	"wet/internal/faultpoint"
	"wet/internal/interp"
	"wet/internal/stream"
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
// edge index).
type EdgeSeg struct {
	Epoch int
	N     int

	Inferable bool
	RampBase  uint32

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
	base := uint32(epoch) * b.fopts.EpochTS
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
		if rep, ok := reps.intern(e, dst, src, ei, len(e.Segs)-1); ok {
			seg.SharedWith, seg.SharedSeg = rep.edge, rep.seg
			continue
		}
		b.jobs = append(b.jobs, func(sc *stream.Scratch) {
			seg.DstS = stream.CompressBestScratch(dst, sc)
			seg.SrcS = stream.CompressBestScratch(src, sc)
		})
	}
}

// finishEpochs completes a segmented build after the interpreter stops:
// seals the trailing partial epoch, compresses the whole-run concurrency
// streams, drops tier 1 and promotes whole-run inferable edges.
func (b *Builder) finishEpochs() error {
	e := b.fopts.EpochTS
	if b.time%e != 0 {
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
	// that fired on every node execution carries exactly the labels a
	// one-epoch freeze drops — promote it so the edge-level fast paths
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

// BuildStreaming runs the program and constructs its frozen WET in one
// call: record, then FreezeErr. With opts.EpochTS > 0 the profile is sealed
// in epochs while the run executes and the WET keeps tier 2 only; 0 builds
// one epoch, keeps tier 1 and compresses it whole at the freeze.
func BuildStreaming(st *interp.Static, ropts interp.Options, opts FreezeOptions) (*WET, *SizeReport, *interp.Result, error) {
	return buildStreaming(st, ropts, opts, false)
}

// BuildStreamingChecked is BuildStreaming with the tier-1 value-grouping
// determinism re-verification enabled on every node execution (see
// Builder.CheckDeterminism; slower).
func BuildStreamingChecked(st *interp.Static, ropts interp.Options, opts FreezeOptions) (*WET, *SizeReport, *interp.Result, error) {
	return buildStreaming(st, ropts, opts, true)
}

func buildStreaming(st *interp.Static, ropts interp.Options, opts FreezeOptions, check bool) (*WET, *SizeReport, *interp.Result, error) {
	w, res, err := record(st, ropts, opts, check)
	if err != nil {
		return nil, nil, res, err
	}
	if ropts.Ctx != nil {
		opts.Ctx = ropts.Ctx
	}
	rep, err := w.FreezeErr(opts)
	if err != nil {
		return nil, nil, res, err
	}
	return w, rep, res, nil
}

// record runs the program into a builder made with opts and finishes it.
// One cancellable context spans the run: the caller's deadline (ropts.Ctx,
// else opts.Ctx) cancels it from outside, and a builder or seal failure
// cancels it from inside, so the interpreter aborts within one ctx-check
// window instead of running to completion against a dead build.
func record(st *interp.Static, ropts interp.Options, opts FreezeOptions, check bool) (*WET, *interp.Result, error) {
	parent := ropts.Ctx
	if parent == nil {
		parent = opts.Ctx
	}
	if parent == nil {
		parent = context.Background()
	}
	ctx, cancel := context.WithCancelCause(parent)
	defer cancel(nil)
	ropts.Ctx, opts.Ctx = ctx, ctx
	b := NewBuilder(st, opts)
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
		return nil, res, err
	}
	w, err := b.Finish()
	return w, res, err
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

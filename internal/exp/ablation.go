package exp

import (
	"context"
	"fmt"
	"io"

	"wet/internal/core"
	"wet/internal/interp"
	"wet/internal/sequitur"
	"wet/internal/stream"
	"wet/internal/workload"
)

// AblationBLvsBB quantifies the tier-1 timestamp optimization (paper §3.1 /
// Figure 2): WET nodes as Ball–Larus paths versus plain basic blocks. It
// rebuilds the workload in both modes and reports timestamp counts and
// sizes.
func AblationBLvsBB(ctx context.Context, name string, targetStmts uint64, w io.Writer) error {
	wl, err := workload.ByName(name)
	if err != nil {
		return err
	}
	scale, err := workload.ScaleFor(wl, targetStmts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Ablation: Ball-Larus path nodes vs basic block nodes (%s).\n", name)
	fmt.Fprintf(w, "%-12s %14s %12s %12s %12s\n", "node kind", "timestamps", "T1 ts (KB)", "T2 ts (KB)", "T2 total(KB)")
	for _, perBlock := range []bool{false, true} {
		prog, in := wl.Build(scale)
		st, err := interp.AnalyzeOpt(prog, perBlock)
		if err != nil {
			return err
		}
		wet, rep, _, err := core.BuildStreaming(st, interp.Options{Ctx: ctx, Inputs: in}, core.FreezeOptions{Ctx: ctx})
		if err != nil {
			return err
		}
		kind := "BL paths"
		if perBlock {
			kind = "basic blocks"
		}
		fmt.Fprintf(w, "%-12s %14d %12.2f %12.2f %12.2f\n",
			kind, wet.Raw.PathExecs, kb(rep.T1TS), kb(rep.T2TS), kb(rep.T2Total()))
	}
	return nil
}

// fullValueSequences materializes every statement occurrence's complete
// value sequence from the grouped representation.
func fullValueSequences(w *core.WET) [][]uint32 {
	var out [][]uint32
	for _, n := range w.Nodes {
		for _, g := range n.Groups {
			for mi := range g.UVals {
				full := make([]uint32, len(g.Pattern))
				for k, idx := range g.Pattern {
					full[k] = g.UVals[mi][idx]
				}
				out = append(out, full)
			}
		}
	}
	return out
}

// nodeTSStreams collects every node's timestamp sequence.
func nodeTSStreams(w *core.WET) [][]uint32 {
	var out [][]uint32
	for _, n := range w.Nodes {
		out = append(out, n.TS)
	}
	return out
}

// AblationStreamMethods reproduces the paper's §4 method comparison: the
// bidirectional predictor pool vs Sequitur (bidirectional but weaker on
// value streams) on both timestamp and value streams.
func AblationStreamMethods(runs []*Run, w io.Writer) {
	fmt.Fprintf(w, "Ablation: stream compression methods (total KB over all streams).\n")
	fmt.Fprintf(w, "%-10s |%12s %12s %12s |%12s %12s %12s\n",
		"", "ts:pool", "ts:seqitur", "ts:raw", "val:pool", "val:seqitur", "val:raw")
	for _, r := range runs {
		sizes := func(streams [][]uint32) (pool, seq, raw uint64) {
			for _, vals := range streams {
				pool += stream.CompressBest(vals).SizeBits()
				seq += sequitur.Build(vals).SizeBits()
				raw += uint64(len(vals)) * 32
			}
			return pool / 8, seq / 8, raw / 8
		}
		tp, tsq, tr := sizes(nodeTSStreams(r.W))
		vp, vsq, vr := sizes(fullValueSequences(r.W))
		fmt.Fprintf(w, "%-10s |%12.1f %12.1f %12.1f |%12.1f %12.1f %12.1f\n",
			r.Name, kb(tp), kb(tsq), kb(tr), kb(vp), kb(vsq), kb(vr))
	}
	fmt.Fprintf(w, "(the pool should beat Sequitur decisively on value streams — the paper's §4 argument)\n")
}

// AblationValueGrouping quantifies the tier-1 value grouping (paper §3.2):
// grouped UVals+Pattern versus storing full value sequences. Both rows come
// from one single-epoch build: "on" is its size report, "off" charges every
// def-port execution's value verbatim at tier 1 and sizes each statement
// occurrence's full value sequence at tier 2.
func AblationValueGrouping(ctx context.Context, name string, targetStmts uint64, w io.Writer) error {
	wl, err := workload.ByName(name)
	if err != nil {
		return err
	}
	scale, err := workload.ScaleFor(wl, targetStmts)
	if err != nil {
		return err
	}
	prog, in := wl.Build(scale)
	st, err := interp.Analyze(prog)
	if err != nil {
		return err
	}
	wet, rep, _, err := core.BuildStreaming(st, interp.Options{Ctx: ctx, Inputs: in}, core.FreezeOptions{Ctx: ctx})
	if err != nil {
		return err
	}
	sc := stream.NewScratch()
	defer sc.Release()
	var offT2 uint64
	for _, full := range fullValueSequences(wet) {
		bits, _ := stream.SizeBest(full, sc)
		offT2 += (bits + 7) / 8
	}
	fmt.Fprintf(w, "Ablation: tier-1 value grouping (%s).\n", name)
	fmt.Fprintf(w, "%-12s %14s %14s\n", "grouping", "T1 vals (KB)", "T2 vals (KB)")
	fmt.Fprintf(w, "%-12s %14.2f %14.2f\n", "on", kb(rep.T1Vals), kb(rep.T2Vals))
	fmt.Fprintf(w, "%-12s %14.2f %14.2f\n", "off", kb(wet.Raw.OrigNodeValBytes()), kb(offT2))
	return nil
}

// AblationLocalTS quantifies the choice of local (per-node ordinal) vs
// global timestamps on dependence edge labels (paper §5: "we use local
// timestamps for each statement because this approach yields greater
// levels of compression").
func AblationLocalTS(runs []*Run, w io.Writer) {
	fmt.Fprintf(w, "Ablation: local vs global timestamps on edge labels (tier-2 KB).\n")
	fmt.Fprintf(w, "%-10s %14s %14s\n", "Benchmark", "local (KB)", "global (KB)")
	for _, r := range runs {
		var localBits, globalBits uint64
		for _, e := range r.W.Edges {
			if e.Inferable || e.SharedWith >= 0 {
				continue
			}
			localBits += stream.CompressBest(e.DstOrd).SizeBits()
			localBits += stream.CompressBest(e.SrcOrd).SizeBits()
			dstG := make([]uint32, len(e.DstOrd))
			srcG := make([]uint32, len(e.SrcOrd))
			dn, sn := r.W.Nodes[e.DstNode], r.W.Nodes[e.SrcNode]
			for i := range e.DstOrd {
				dstG[i] = dn.TS[e.DstOrd[i]]
				srcG[i] = sn.TS[e.SrcOrd[i]]
			}
			globalBits += stream.CompressBest(dstG).SizeBits()
			globalBits += stream.CompressBest(srcG).SizeBits()
		}
		fmt.Fprintf(w, "%-10s %14.2f %14.2f\n", r.Name, kb(localBits/8), kb(globalBits/8))
	}
}

// AblationSelection compares the adaptive per-stream method selection with
// every fixed single method, over all node timestamp streams.
func AblationSelection(runs []*Run, w io.Writer) {
	fmt.Fprintf(w, "Ablation: adaptive selection vs fixed methods (node ts streams, total KB).\n")
	fmt.Fprintf(w, "%-10s %10s", "Benchmark", "adaptive")
	fixed := []stream.Spec{
		{Kind: stream.KindFCM, Order: 2},
		{Kind: stream.KindDFCM, Order: 1},
		{Kind: stream.KindLastN, Order: 4},
		{Kind: stream.KindLastNStride, Order: 4},
	}
	for _, s := range fixed {
		fmt.Fprintf(w, " %10s", s.String())
	}
	fmt.Fprintf(w, "\n")
	for _, r := range runs {
		streams := nodeTSStreams(r.W)
		var adaptive uint64
		for _, vals := range streams {
			adaptive += stream.CompressBest(vals).SizeBits()
		}
		fmt.Fprintf(w, "%-10s %10.1f", r.Name, kb(adaptive/8))
		for _, spec := range fixed {
			var tot uint64
			for _, vals := range streams {
				tot += stream.Compress(vals, spec).SizeBits()
			}
			fmt.Fprintf(w, " %10.1f", kb(tot/8))
		}
		fmt.Fprintf(w, "\n")
	}
}

// AblationAggressiveEdges quantifies the [25]-style diagonal-edge reduction
// (FreezeOptions.AggressiveEdges) that the paper's §3.3 defers to: edges
// whose label pairs always carry equal ordinals store one stream, not two.
func AblationAggressiveEdges(ctx context.Context, name string, targetStmts uint64, w io.Writer) error {
	wl, err := workload.ByName(name)
	if err != nil {
		return err
	}
	scale, err := workload.ScaleFor(wl, targetStmts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Ablation: aggressive (diagonal) edge labels, per [25] (%s).\n", name)
	fmt.Fprintf(w, "%-12s %12s %12s %12s\n", "mode", "T1 edges(KB)", "T2 edges(KB)", "diagonal")
	for _, aggr := range []bool{false, true} {
		prog, in := wl.Build(scale)
		st, err := interp.Analyze(prog)
		if err != nil {
			return err
		}
		_, rep, _, err := core.BuildStreaming(st, interp.Options{Ctx: ctx, Inputs: in}, core.FreezeOptions{Ctx: ctx, AggressiveEdges: aggr})
		if err != nil {
			return err
		}
		kind := "paper tier-1"
		if aggr {
			kind = "aggressive"
		}
		fmt.Fprintf(w, "%-12s %12.2f %12.2f %12d\n", kind, kb(rep.T1Edges), kb(rep.T2Edges), rep.DiagonalEdges)
	}
	return nil
}

// Package exp is the experiment harness: it rebuilds every table and figure
// of the paper's evaluation (§5) on the nine synthetic workloads. Absolute
// numbers differ from the paper (different substrate, scaled-down runs);
// the harness reports the same rows so shapes can be compared directly.
package exp

import (
	"context"
	"fmt"
	"io"
	"time"

	"wet/internal/arch"
	"wet/internal/core"
	"wet/internal/interp"
	"wet/internal/ir"
	"wet/internal/stream"
	"wet/internal/workload"
)

// Config controls run lengths and selection.
type Config struct {
	// TargetStmts sizes each workload run (dynamic statements). 0 means
	// DefaultTargetStmts.
	TargetStmts uint64
	// Workloads optionally restricts the set (names); empty = all nine.
	Workloads []string
	// Slices is the number of slicing criteria for Table 9 (default 25,
	// like the paper).
	Slices int
	// Workers bounds the tier-2 freeze worker pool (0 = GOMAXPROCS, 1 =
	// serial). Results are identical at any worker count.
	Workers int
}

// DefaultTargetStmts keeps the full suite comfortably fast while large
// enough for the compressors to reach steady state.
const DefaultTargetStmts = 400_000

// Run is one workload's built artifacts, shared by all tables.
type Run struct {
	Name      string
	Stmts     uint64
	Scale     int
	W         *core.WET
	Rep       *core.SizeReport
	Arch      *arch.Recorder
	BuildTime time.Duration
}

func (c Config) targets() uint64 {
	if c.TargetStmts == 0 {
		return DefaultTargetStmts
	}
	return c.TargetStmts
}

func (c Config) slices() int {
	if c.Slices == 0 {
		return 25
	}
	return c.Slices
}

func (c Config) workloads() ([]workload.Workload, error) {
	if len(c.Workloads) == 0 {
		return workload.All(), nil
	}
	var out []workload.Workload
	for _, name := range c.Workloads {
		w, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// BuildRun executes one workload at the target length and constructs its
// frozen WET with the architecture recorder attached. workers bounds the
// freeze pool (0 = GOMAXPROCS). A dead ctx stops the interpreter within 4096
// steps and the freeze between jobs, returning context.Cause.
func BuildRun(ctx context.Context, w workload.Workload, targetStmts uint64, workers int) (*Run, error) {
	scale, err := workload.ScaleFor(w, targetStmts)
	if err != nil {
		return nil, err
	}
	prog, in := w.Build(scale)
	rec := arch.NewRecorder()
	r, err := buildRun(ctx, w.Name, scale, prog, interp.Options{Inputs: in, Arch: rec}, workers)
	if err != nil {
		return nil, err
	}
	r.Arch = rec
	return r, nil
}

// buildRun is the build shared by BuildRun and BuildConcRun: single-epoch
// BuildStreaming is exactly Build + FreezeErr and keeps tier-1 for the
// tables.
func buildRun(ctx context.Context, name string, scale int, prog *ir.Program, opts interp.Options, workers int) (*Run, error) {
	st, err := interp.Analyze(prog)
	if err != nil {
		return nil, err
	}
	opts.Ctx = ctx
	start := time.Now()
	wet, rep, res, err := core.BuildStreaming(st, opts, core.FreezeOptions{Ctx: ctx, Workers: workers})
	if err != nil {
		return nil, err
	}
	return &Run{
		Name:      name,
		Stmts:     res.Steps,
		Scale:     scale,
		W:         wet,
		Rep:       rep,
		BuildTime: time.Since(start),
	}, nil
}

// concScaleFor calibrates a concurrent variant's scale for a statement
// target, separating fixed setup cost from the per-scale increment (the
// ConcWorkload twin of workload.ScaleFor).
func concScaleFor(wl workload.ConcWorkload, targetStmts uint64) (int, error) {
	steps := func(scale int) (uint64, error) {
		p, in := wl.Build(scale)
		st, err := interp.Analyze(p)
		if err != nil {
			return 0, err
		}
		res, err := interp.Run(st, interp.Options{Inputs: in})
		if err != nil {
			return 0, err
		}
		return res.Steps, nil
	}
	s1, err := steps(1)
	if err != nil {
		return 0, err
	}
	s2, err := steps(2)
	if err != nil {
		return 0, err
	}
	if s2 <= s1 {
		return 0, fmt.Errorf("conc workload %s does not scale (%d vs %d steps)", wl.Name, s1, s2)
	}
	if targetStmts <= s1 {
		return 1, nil
	}
	perScale := s2 - s1
	return 1 + int((targetStmts-s1+perScale-1)/perScale), nil
}

// BuildConcRun executes one concurrent workload variant at the target
// length and constructs its frozen WET (the wetrun -conc path). The seed
// drives the deterministic thread scheduler; the same seed replays the same
// interleaving bit-for-bit.
func BuildConcRun(ctx context.Context, wl workload.ConcWorkload, targetStmts uint64, workers int, seed uint64) (*Run, error) {
	scale, err := concScaleFor(wl, targetStmts)
	if err != nil {
		return nil, err
	}
	prog, in := wl.Build(scale)
	return buildRun(ctx, wl.Name, scale, prog, interp.Options{Inputs: in, Seed: seed}, workers)
}

// RunAll builds every configured workload.
func RunAll(ctx context.Context, cfg Config, progress io.Writer) ([]*Run, error) {
	ws, err := cfg.workloads()
	if err != nil {
		return nil, err
	}
	var runs []*Run
	for _, w := range ws {
		if progress != nil {
			fmt.Fprintf(progress, "building %s (target %d stmts)...\n", w.Name, cfg.targets())
		}
		r, err := BuildRun(ctx, w, cfg.targets(), cfg.Workers)
		if err != nil {
			return nil, fmt.Errorf("exp: %s: %w", w.Name, err)
		}
		runs = append(runs, r)
	}
	return runs, nil
}

func mb(b uint64) float64 { return float64(b) / (1024 * 1024) }
func kb(b uint64) float64 { return float64(b) / 1024 }

// Table1 prints WET sizes: statements executed, original WET, compressed
// WET, and the compression factor (paper Table 1).
func Table1(runs []*Run, w io.Writer) {
	fmt.Fprintf(w, "Table 1. WET sizes.\n")
	fmt.Fprintf(w, "%-10s %14s %14s %14s %10s\n", "Benchmark", "Stmts (K)", "Orig WET (KB)", "Comp WET (KB)", "Orig/Comp")
	var sStmts, sOrig, sComp uint64
	for _, r := range runs {
		fmt.Fprintf(w, "%-10s %14.2f %14.2f %14.2f %10.2f\n",
			r.Name, float64(r.Stmts)/1e3, kb(r.Rep.OrigTotal()), kb(r.Rep.T2Total()),
			core.Ratio(r.Rep.OrigTotal(), r.Rep.T2Total()))
		sStmts += r.Stmts
		sOrig += r.Rep.OrigTotal()
		sComp += r.Rep.T2Total()
	}
	n := uint64(len(runs))
	if n > 0 {
		fmt.Fprintf(w, "%-10s %14.2f %14.2f %14.2f %10.2f\n", "Avg.",
			float64(sStmts/n)/1e3, kb(sOrig/n), kb(sComp/n), core.Ratio(sOrig, sComp))
	}
}

// Table2 prints node label compression: timestamp and value labels at each
// tier (paper Table 2).
func Table2(runs []*Run, w io.Writer) {
	fmt.Fprintf(w, "Table 2. Effect of compression on node labels.\n")
	fmt.Fprintf(w, "%-10s | %12s %10s %10s | %12s %10s %10s\n",
		"Benchmark", "ts orig(KB)", "o/Tier-1", "o/Tier-2", "val orig(KB)", "o/Tier-1", "o/Tier-2")
	var oT, t1T, t2T, oV, t1V, t2V uint64
	for _, r := range runs {
		fmt.Fprintf(w, "%-10s | %12.2f %10.2f %10.2f | %12.2f %10.2f %10.2f\n",
			r.Name,
			kb(r.Rep.OrigTS), core.Ratio(r.Rep.OrigTS, r.Rep.T1TS), core.Ratio(r.Rep.OrigTS, r.Rep.T2TS),
			kb(r.Rep.OrigVals), core.Ratio(r.Rep.OrigVals, r.Rep.T1Vals), core.Ratio(r.Rep.OrigVals, r.Rep.T2Vals))
		oT += r.Rep.OrigTS
		t1T += r.Rep.T1TS
		t2T += r.Rep.T2TS
		oV += r.Rep.OrigVals
		t1V += r.Rep.T1Vals
		t2V += r.Rep.T2Vals
	}
	fmt.Fprintf(w, "%-10s | %12.2f %10.2f %10.2f | %12.2f %10.2f %10.2f\n", "Avg.",
		kb(oT/uint64(len(runs))), core.Ratio(oT, t1T), core.Ratio(oT, t2T),
		kb(oV/uint64(len(runs))), core.Ratio(oV, t1V), core.Ratio(oV, t2V))
}

// Table3 prints edge label compression (paper Table 3).
func Table3(runs []*Run, w io.Writer) {
	fmt.Fprintf(w, "Table 3. Effect of compression on edge labels.\n")
	fmt.Fprintf(w, "%-10s %14s %10s %10s\n", "Benchmark", "orig (KB)", "o/Tier-1", "o/Tier-2")
	var o, t1, t2 uint64
	for _, r := range runs {
		fmt.Fprintf(w, "%-10s %14.2f %10.2f %10.2f\n", r.Name,
			kb(r.Rep.OrigEdges), core.Ratio(r.Rep.OrigEdges, r.Rep.T1Edges), core.Ratio(r.Rep.OrigEdges, r.Rep.T2Edges))
		o += r.Rep.OrigEdges
		t1 += r.Rep.T1Edges
		t2 += r.Rep.T2Edges
	}
	fmt.Fprintf(w, "%-10s %14.2f %10.2f %10.2f\n", "Avg.",
		kb(o/uint64(len(runs))), core.Ratio(o, t1), core.Ratio(o, t2))
}

// Table4 prints the architecture-specific one-bit histories (paper Table 4),
// extended with a column showing the histories after tier-2 compression
// (the paper stores them uncompressed and notes they are already small).
func Table4(runs []*Run, w io.Writer) {
	fmt.Fprintf(w, "Table 4. Architecture specific information (1 bit per execution).\n")
	fmt.Fprintf(w, "%-10s %12s %12s %12s %12s %12s %13s\n",
		"Benchmark", "Branch (KB)", "Load (KB)", "Store (KB)", "mispred %", "miss %", "comp. (KB)")
	var b, l, s uint64
	pool := func(vals []uint32) uint64 { return stream.CompressBest(vals).SizeBits() }
	for _, r := range runs {
		bb, lb, sb := r.Arch.Bytes()
		cb, cl, cs := r.Arch.CompressedBytes(pool)
		mp := 100 * float64(r.Arch.Mispredicts) / float64(max64(r.Arch.Branches, 1))
		ms := 100 * float64(r.Arch.LoadMisses+r.Arch.StoreMisses) / float64(max64(r.Arch.Loads+r.Arch.Stores, 1))
		fmt.Fprintf(w, "%-10s %12.2f %12.2f %12.2f %12.2f %12.2f %13.2f\n",
			r.Name, kb(bb), kb(lb), kb(sb), mp, ms, kb(cb+cl+cs))
		b += bb
		l += lb
		s += sb
	}
	n := uint64(len(runs))
	fmt.Fprintf(w, "%-10s %12.2f %12.2f %12.2f\n", "Avg.", kb(b/n), kb(l/n), kb(s/n))
}

// Table5 prints WET construction times (paper Table 5).
func Table5(runs []*Run, w io.Writer) {
	fmt.Fprintf(w, "Table 5. WET construction times.\n")
	fmt.Fprintf(w, "%-10s %14s %18s %16s\n", "Benchmark", "Stmts (K)", "Construction (ms)", "Kstmts/sec")
	var tot time.Duration
	var stmts uint64
	for _, r := range runs {
		rate := float64(r.Stmts) / 1e3 / r.BuildTime.Seconds()
		fmt.Fprintf(w, "%-10s %14.2f %18.2f %16.1f\n", r.Name, float64(r.Stmts)/1e3,
			float64(r.BuildTime.Microseconds())/1e3, rate)
		tot += r.BuildTime
		stmts += r.Stmts
	}
	n := len(runs)
	fmt.Fprintf(w, "%-10s %14.2f %18.2f\n", "Avg.", float64(stmts/uint64(n))/1e3,
		float64(tot.Microseconds())/float64(n)/1e3)
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

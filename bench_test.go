package wet_test

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benches for the design choices called out in DESIGN.md.
// `go test -bench=. -benchmem` regenerates every measurement; cmd/wetbench
// prints the same data as paper-style tables.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"wet"
	"wet/internal/arch"
	"wet/internal/core"
	"wet/internal/exp"
	"wet/internal/interp"
	"wet/internal/query"
	"wet/internal/sequitur"
	"wet/internal/stream"
	"wet/internal/workload"
)

// benchTarget keeps each workload run small enough that the full bench
// suite finishes quickly; wetbench -stmts scales the real tables up.
const benchTarget = 60_000

var (
	runsOnce sync.Once
	runsAll  []*exp.Run
	runsErr  error
)

// benchRuns builds all nine workload WETs once and caches them.
func benchRuns(b *testing.B) []*exp.Run {
	b.Helper()
	runsOnce.Do(func() {
		runsAll, runsErr = exp.RunAll(context.Background(), exp.Config{TargetStmts: benchTarget}, nil)
	})
	if runsErr != nil {
		b.Fatal(runsErr)
	}
	return runsAll
}

// BenchmarkTable1WETSizes measures end-to-end WET construction plus
// two-tier compression (the producer of Table 1) and reports the achieved
// compression factor.
func BenchmarkTable1WETSizes(b *testing.B) {
	wls := workload.All()
	var ratio float64
	for i := 0; i < b.N; i++ {
		wl := wls[i%len(wls)]
		r, err := exp.BuildRun(context.Background(), wl, benchTarget, 0)
		if err != nil {
			b.Fatal(err)
		}
		ratio = core.Ratio(r.Rep.OrigTotal(), r.Rep.T2Total())
	}
	b.ReportMetric(ratio, "orig/comp")
}

// BenchmarkTable2NodeLabels measures tier-2 compression of the node labels
// (timestamp and value streams) of prebuilt WETs.
func BenchmarkTable2NodeLabels(b *testing.B) {
	runs := benchRuns(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := runs[i%len(runs)]
		for _, n := range r.W.Nodes {
			stream.CompressBest(n.TS)
			for _, g := range n.Groups {
				stream.CompressBest(g.Pattern)
				for _, uv := range g.UVals {
					stream.CompressBest(uv)
				}
			}
		}
	}
}

// BenchmarkTable3EdgeLabels measures tier-2 compression of the dependence
// edge label streams.
func BenchmarkTable3EdgeLabels(b *testing.B) {
	runs := benchRuns(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := runs[i%len(runs)]
		for _, e := range r.W.Edges {
			if e.Inferable || e.SharedWith >= 0 {
				continue
			}
			stream.CompressBest(e.DstOrd)
			stream.CompressBest(e.SrcOrd)
		}
	}
}

// BenchmarkTable4ArchBits measures the architecture-profile generation
// (gshare + cache simulation during a run).
func BenchmarkTable4ArchBits(b *testing.B) {
	wl, err := workload.ByName("gzip")
	if err != nil {
		b.Fatal(err)
	}
	prog, in := wl.Build(1)
	st, err := interp.Analyze(prog)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := newArchRecorder()
		if _, err := interp.Run(st, interp.Options{Inputs: in, Arch: rec}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5Construction measures WET construction alone (no tier-2
// compression), the paper's Table 5.
func BenchmarkTable5Construction(b *testing.B) {
	wl, err := workload.ByName("li")
	if err != nil {
		b.Fatal(err)
	}
	scale, err := workload.ScaleFor(wl, benchTarget)
	if err != nil {
		b.Fatal(err)
	}
	prog, in := wl.Build(scale)
	st, err := interp.Analyze(prog)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Build(st, interp.Options{Inputs: in}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecordOp is the bench harness's record op in tier-1: gcc and mcf
// at scale 1, built in epochs of 2048 timestamps and saved to memory.
func BenchmarkRecordOp(b *testing.B) {
	var stmts uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, name := range []string{"gcc", "mcf"} {
			tr := runWorkload(b, name, wet.WithEpochTS(1<<11))
			stmts += tr.WET().Raw.StmtExecs
			benchSum += len(saveBytes(b, tr))
		}
	}
	b.ReportMetric(float64(stmts)/b.Elapsed().Seconds(), "stmts/s")
}

func benchCF(b *testing.B, tier core.Tier, forward bool) {
	runs := benchRuns(b)
	var total uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := runs[i%len(runs)]
		total += query.ExtractCF(r.W, tier, forward, nil)
	}
	b.ReportMetric(float64(total)/float64(b.N), "stmts/op")
}

// BenchmarkTable6CFTrace measures control-flow trace extraction in all four
// paper configurations.
func BenchmarkTable6CFTrace(b *testing.B) {
	b.Run("fwd-tier1", func(b *testing.B) { benchCF(b, core.Tier1, true) })
	b.Run("fwd-tier2", func(b *testing.B) { benchCF(b, core.Tier2, true) })
	b.Run("bwd-tier1", func(b *testing.B) { benchCF(b, core.Tier1, false) })
	b.Run("bwd-tier2", func(b *testing.B) { benchCF(b, core.Tier2, false) })
}

// reopened returns gcc recorded in epochs, saved and opened again: journey
// 2, where every label sequence is a federation of per-epoch segments.
func reopened(b *testing.B) *wet.Trace {
	b.Helper()
	data := saveBytes(b, runWorkload(b, "gcc", wet.WithEpochTS(1<<11)))
	tr, _, err := wet.Open(bytes.NewReader(data))
	if err != nil {
		b.Fatal(err)
	}
	if tr.Epochs() < 2 {
		b.Fatalf("want a multi-epoch container, got %d epoch(s)", tr.Epochs())
	}
	return tr
}

// BenchmarkExtractCF measures whole control-flow extraction on a reopened
// container; the paper's claim is that the two directions cost the same.
func BenchmarkExtractCF(b *testing.B) {
	tr := reopened(b)
	for _, dir := range []struct {
		name    string
		forward bool
	}{{"fwd", true}, {"bwd", false}} {
		b.Run(dir.name, func(b *testing.B) {
			var n uint64
			sum := 0
			for i := 0; i < b.N; i++ {
				n = tr.ExtractControlFlow(dir.forward, func(id int) { sum += id })
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n)/float64(b.N), "ns/stmt")
			benchSum += sum
		})
	}
}

// benchSamples measures one whole-program sample extraction on a reopened
// container.
func benchSamples(b *testing.B, extract func(*core.WET, core.Tier, func(int, query.Sample)) (uint64, error)) {
	tr := reopened(b)
	b.ReportAllocs()
	b.ResetTimer()
	var n uint64
	sum := int64(0)
	for i := 0; i < b.N; i++ {
		var err error
		n, err = extract(tr.WET(), tr.Tier(), func(_ int, s query.Sample) { sum += s.Value + int64(s.TS) })
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n)/float64(b.N), "ns/sample")
	benchSum += int(sum)
}

// BenchmarkLoadValueTraces measures every load value trace of a reopened
// container, BenchmarkAddressTraces every load/store address trace.
func BenchmarkLoadValueTraces(b *testing.B) { benchSamples(b, query.LoadValueTraces) }
func BenchmarkAddressTraces(b *testing.B)   { benchSamples(b, query.AddressTraces) }

// replayContainer returns the container the bench harness's replay op
// opens: gcc at scale 4 in epochs of 8192 timestamps.
func replayContainer(b *testing.B) []byte {
	wl, err := wet.WorkloadByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	prog, in := wl.Build(4)
	tr, _, err := wet.Run(prog, wet.WithInputs(in...), wet.WithEpochTS(1<<13))
	if err != nil {
		b.Fatal(err)
	}
	return saveBytes(b, tr)
}

// BenchmarkOpen measures journey 2's first stage on the replay container:
// wet.Open from bytes in memory, eager and lazy, at one worker.
func BenchmarkOpen(b *testing.B) {
	data := replayContainer(b)
	for _, mode := range openModes {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr, _, err := wet.Open(bytes.NewReader(data), mode.opts...)
				if err != nil {
					b.Fatal(err)
				}
				benchSum += tr.Epochs()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(len(data))/float64(b.N), "ns/byte")
		})
	}
}

// BenchmarkExtractCFRange is the bench harness's replay alternate op on one
// container: a lazy open of the replay container, then eight control-flow
// windows of 512 timestamps, one at a seeded point in each eighth of the run.
func BenchmarkExtractCFRange(b *testing.B) {
	const windows, length = 8, 512
	data := replayContainer(b)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, _, err := wet.Open(bytes.NewReader(data), wet.WithLazy())
		if err != nil {
			b.Fatal(err)
		}
		span := (tr.Time() - length) / windows
		for k := uint32(0); k < windows; k++ {
			from := span*k + 1 + uint32(rng.Int63n(int64(span)))
			if _, err := tr.ExtractCFRange(from, from+length-1, func(id int) { benchSum += id }); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(windows*b.N), "ns/window")
}

// openModes are the two opens BenchmarkOpen times and TestOpenAllocBudget
// budgets (allocations per KiB of container, bytes allocated per container
// byte; the comments give the measured values the ceilings add 5% to).
// History, eager then lazy: 319.4/8.72 and 307.2/7.76 before the byte
// decoder; 65.5/6.12 and 49.2/5.33 before value groups on bitsets, packed
// payloads read in place and count-then-fill indexes.
var openModes = []struct {
	name                       string
	opts                       []wet.OpenOption
	allocsPerKiB, bytesPerByte float64
}{
	{"eager", []wet.OpenOption{wet.WithWorkers(1)}, 49.9, 5.46},                // 47.5, 5.20
	{"lazy", []wet.OpenOption{wet.WithWorkers(1), wet.WithLazy()}, 25.4, 4.40}, // 24.2, 4.19
}

// benchSum keeps the emit callbacks' work observable.
var benchSum int

// BenchmarkTable7LoadValues measures per-instruction load value trace
// extraction.
func BenchmarkTable7LoadValues(b *testing.B) {
	runs := benchRuns(b)
	for _, tier := range []core.Tier{core.Tier1, core.Tier2} {
		tier := tier
		b.Run(tier.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := runs[i%len(runs)]
				if _, err := query.LoadValueTraces(r.W, tier, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable8Addresses measures per-instruction address trace
// extraction.
func BenchmarkTable8Addresses(b *testing.B) {
	runs := benchRuns(b)
	for _, tier := range []core.Tier{core.Tier1, core.Tier2} {
		tier := tier
		b.Run(tier.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := runs[i%len(runs)]
				if _, err := query.AddressTraces(r.W, tier, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable9Slices measures backward WET slices (the paper averages
// over 25 criteria per benchmark).
func BenchmarkTable9Slices(b *testing.B) {
	runs := benchRuns(b)
	crit := make(map[string][]query.Instance)
	for _, r := range runs {
		crit[r.Name] = exp.SliceCriteria(r.W, 25)
	}
	for _, tier := range []core.Tier{core.Tier1, core.Tier2} {
		tier := tier
		b.Run(tier.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := runs[i%len(runs)]
				cs := crit[r.Name]
				c := cs[i%len(cs)]
				if _, err := query.BackwardSlice(r.W, tier, c, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSliceBatch is the bench's slice op in-process: backward slices of
// 4 criteria on li and 6 on gzip at tier 2, and under /forward the forward
// slices of the same criteria capped at 300 instances (its alternate op).
func BenchmarkSliceBatch(b *testing.B) {
	type job struct {
		tr   *wet.Trace
		crit []wet.Instance
	}
	var jobs []job
	for _, wl := range []struct {
		name string
		k    int
	}{{"li", 4}, {"gzip", 6}} {
		tr := runWorkload(b, wl.name)
		jobs = append(jobs, job{tr, exp.SliceCriteria(tr.WET(), wl.k)})
	}
	for _, dir := range []struct {
		name  string
		slice func(*wet.Trace, wet.Instance) (*wet.SliceResult, error)
	}{
		{"backward", func(tr *wet.Trace, c wet.Instance) (*wet.SliceResult, error) { return tr.Backward(c, 0) }},
		{"forward", func(tr *wet.Trace, c wet.Instance) (*wet.SliceResult, error) { return tr.Forward(c, 300) }},
	} {
		b.Run(dir.name, func(b *testing.B) {
			b.ReportAllocs()
			instances := 0
			for i := 0; i < b.N; i++ {
				for _, j := range jobs {
					for _, c := range j.crit {
						res, err := dir.slice(j.tr, c)
						if err != nil {
							b.Fatal(err)
						}
						instances += len(res.Instances)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instances), "ns/instance")
		})
	}
}

// BenchmarkFigure8Components measures the full Freeze (tier-1 reductions +
// tier-2 compression of every component), whose output Figure 8 plots.
func BenchmarkFigure8Components(b *testing.B) {
	wl, err := workload.ByName("parser")
	if err != nil {
		b.Fatal(err)
	}
	prog, in := wl.Build(1)
	st, err := interp.Analyze(prog)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w, _, err := core.Build(st, interp.Options{Inputs: in})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := w.FreezeErr(core.FreezeOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFreezeParallel sweeps the tier-2 freeze worker pool over worker
// counts on the BenchmarkTable5Construction workload. Output is
// byte-identical at every worker count (TestFreezeParallelDeterminism), so
// the sweep isolates pure wall-clock scaling of the freeze pipeline.
func BenchmarkFreezeParallel(b *testing.B) {
	wl, err := workload.ByName("li")
	if err != nil {
		b.Fatal(err)
	}
	scale, err := workload.ScaleFor(wl, benchTarget)
	if err != nil {
		b.Fatal(err)
	}
	prog, in := wl.Build(scale)
	st, err := interp.Analyze(prog)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var t2 uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				w, _, err := core.Build(st, interp.Options{Inputs: in})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				rep, err := w.FreezeErr(core.FreezeOptions{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				t2 = rep.T2Total()
			}
			b.ReportMetric(float64(t2), "t2bytes")
		})
	}
}

// BenchmarkQueryParallel sweeps query.BatchCtx over worker counts, replaying a
// fixed mixed query batch (backward slices at both tiers plus whole-trace
// extractions) against ONE shared frozen WET. Detached cursors make the
// queries embarrassingly parallel; this tracks the wall-clock scaling.
func BenchmarkQueryParallel(b *testing.B) {
	runs := benchRuns(b)
	r := runs[0]
	crit := exp.SliceCriteria(r.W, 16)
	var jobs []func()
	for _, tier := range []core.Tier{core.Tier1, core.Tier2} {
		tier := tier
		for _, c := range crit {
			c := c
			jobs = append(jobs, func() { _, _ = query.BackwardSlice(r.W, tier, c, 0) })
		}
		jobs = append(jobs,
			func() { query.ExtractCF(r.W, tier, true, nil) },
			func() { _, _ = query.LoadValueTraces(r.W, tier, nil) },
			func() { _, _ = query.AddressTraces(r.W, tier, nil) },
		)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				err := query.BatchCtx(context.Background(), workers, len(jobs), func(j int) error { jobs[j](); return nil })
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(jobs)), "queries/op")
		})
	}
}

// BenchmarkFigure9Scalability measures construction+compression at growing
// run lengths (Figure 9's x axis).
func BenchmarkFigure9Scalability(b *testing.B) {
	wl, err := workload.ByName("bzip2")
	if err != nil {
		b.Fatal(err)
	}
	for _, mult := range []uint64{1, 2, 4} {
		target := benchTarget * mult
		b.Run(sizeName(target), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				r, err := exp.BuildRun(context.Background(), wl, target, 0)
				if err != nil {
					b.Fatal(err)
				}
				ratio = core.Ratio(r.Rep.OrigTotal(), r.Rep.T2Total())
			}
			b.ReportMetric(ratio, "orig/comp")
		})
	}
}

// --- ablation benches (design choices from DESIGN.md §5) ---

// BenchmarkAblationBLvsBB compares Ball–Larus path nodes with basic-block
// nodes (paper §3.1): the per-block mode emits far more timestamps.
func BenchmarkAblationBLvsBB(b *testing.B) {
	wl, err := workload.ByName("go")
	if err != nil {
		b.Fatal(err)
	}
	prog, in := wl.Build(1)
	for _, perBlock := range []bool{false, true} {
		name := "ballarus"
		if perBlock {
			name = "perblock"
		}
		st, err := interp.AnalyzeOpt(prog, perBlock)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			var ts uint64
			for i := 0; i < b.N; i++ {
				w, _, err := core.Build(st, interp.Options{Inputs: in})
				if err != nil {
					b.Fatal(err)
				}
				ts = w.Raw.PathExecs
			}
			b.ReportMetric(float64(ts), "timestamps")
		})
	}
}

// BenchmarkAblationStreamMethods compares the bidirectional predictor pool
// with Sequitur on the node timestamp streams (paper §4's argument).
func BenchmarkAblationStreamMethods(b *testing.B) {
	runs := benchRuns(b)
	var streams [][]uint32
	for _, n := range runs[0].W.Nodes {
		streams = append(streams, n.TS)
	}
	b.Run("predictor-pool", func(b *testing.B) {
		var bits uint64
		for i := 0; i < b.N; i++ {
			bits = 0
			for _, vals := range streams {
				bits += stream.CompressBest(vals).SizeBits()
			}
		}
		b.ReportMetric(float64(bits/8), "bytes")
	})
	b.Run("sequitur", func(b *testing.B) {
		var bits uint64
		for i := 0; i < b.N; i++ {
			bits = 0
			for _, vals := range streams {
				bits += sequitur.Build(vals).SizeBits()
			}
		}
		b.ReportMetric(float64(bits/8), "bytes")
	})
}

// BenchmarkAblationValueGrouping compares the tier-2 value bytes of the
// tier-1 value grouping (paper §3.2) with those of every statement
// occurrence's full value sequence, sized without building its stream.
func BenchmarkAblationValueGrouping(b *testing.B) {
	wl, err := workload.ByName("li")
	if err != nil {
		b.Fatal(err)
	}
	prog, in := wl.Build(1)
	st, err := interp.Analyze(prog)
	if err != nil {
		b.Fatal(err)
	}
	build := func() *core.WET {
		w, _, err := core.Build(st, interp.Options{Inputs: in})
		if err != nil {
			b.Fatal(err)
		}
		return w
	}
	b.Run("grouped", func(b *testing.B) {
		var bytes uint64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			w := build()
			b.StartTimer()
			rep, err := w.FreezeErr(core.FreezeOptions{})
			if err != nil {
				b.Fatal(err)
			}
			bytes = rep.T2Vals
		}
		b.ReportMetric(float64(bytes), "valbytes")
	})
	b.Run("ungrouped", func(b *testing.B) {
		w := build()
		sc := stream.NewScratch()
		defer sc.Release()
		var bytes uint64
		for i := 0; i < b.N; i++ {
			bytes = 0
			for _, n := range w.Nodes {
				for _, g := range n.Groups {
					for _, uv := range g.UVals {
						full := make([]uint32, len(g.Pattern))
						for k, idx := range g.Pattern {
							full[k] = uv[idx]
						}
						bits, _ := stream.SizeBest(full, sc)
						bytes += (bits + 7) / 8
					}
				}
			}
		}
		b.ReportMetric(float64(bytes), "valbytes")
	})
}

// BenchmarkAblationLocalTS compares local vs global timestamps on edge
// labels (the paper's §5 implementation choice).
func BenchmarkAblationLocalTS(b *testing.B) {
	runs := benchRuns(b)
	r := runs[0]
	b.Run("local", func(b *testing.B) {
		var bits uint64
		for i := 0; i < b.N; i++ {
			bits = 0
			for _, e := range r.W.Edges {
				if e.Inferable || e.SharedWith >= 0 {
					continue
				}
				bits += stream.CompressBest(e.DstOrd).SizeBits()
				bits += stream.CompressBest(e.SrcOrd).SizeBits()
			}
		}
		b.ReportMetric(float64(bits/8), "bytes")
	})
	b.Run("global", func(b *testing.B) {
		var bits uint64
		for i := 0; i < b.N; i++ {
			bits = 0
			for _, e := range r.W.Edges {
				if e.Inferable || e.SharedWith >= 0 {
					continue
				}
				dn, sn := r.W.Nodes[e.DstNode], r.W.Nodes[e.SrcNode]
				dstG := make([]uint32, len(e.DstOrd))
				srcG := make([]uint32, len(e.SrcOrd))
				for k := range e.DstOrd {
					dstG[k] = dn.TS[e.DstOrd[k]]
					srcG[k] = sn.TS[e.SrcOrd[k]]
				}
				bits += stream.CompressBest(dstG).SizeBits()
				bits += stream.CompressBest(srcG).SizeBits()
			}
		}
		b.ReportMetric(float64(bits/8), "bytes")
	})
}

// BenchmarkAblationSelection compares the adaptive method selection with a
// single fixed method.
func BenchmarkAblationSelection(b *testing.B) {
	runs := benchRuns(b)
	var streams [][]uint32
	for _, n := range runs[0].W.Nodes {
		streams = append(streams, n.TS)
	}
	b.Run("adaptive", func(b *testing.B) {
		var bits uint64
		for i := 0; i < b.N; i++ {
			bits = 0
			for _, vals := range streams {
				bits += stream.CompressBest(vals).SizeBits()
			}
		}
		b.ReportMetric(float64(bits/8), "bytes")
	})
	b.Run("fixed-fcm2", func(b *testing.B) {
		var bits uint64
		for i := 0; i < b.N; i++ {
			bits = 0
			for _, vals := range streams {
				bits += stream.Compress(vals, stream.Spec{Kind: stream.KindFCM, Order: 2}).SizeBits()
			}
		}
		b.ReportMetric(float64(bits/8), "bytes")
	})
}

func sizeName(n uint64) string {
	return fmt.Sprintf("%dK", n/1000)
}

// newArchRecorder builds the Table 4 recorder.
func newArchRecorder() interp.ArchSink { return arch.NewRecorder() }

// TestBuildAllocBudget pins the tier-1 builder's allocation volume: one
// core.Build of mcf (interpreter and builder, no freeze) must stay under 54
// bytes per statement. It measures 50.6, of which 15 are the single-epoch
// Finish storing the ramps it counted; a builder that stores every label as
// it arrives spends twice the budget, and one that locates dependence
// sources through a per-statement table rather than a per-path one spends 8
// more (58).
func TestBuildAllocBudget(t *testing.T) {
	checkMcfAllocs(t, "core.Build", 54, func(st *interp.Static, ropts interp.Options) (*interp.Result, error) {
		_, res, err := core.Build(st, ropts)
		return res, err
	})
}

// TestStreamingBuildAllocBudget pins the streamed build's allocation volume:
// core.BuildStreaming of mcf in epochs of 2048 timestamps at one worker
// (interpreter, builder, seals and tier-2 encode) must stay under 28 bytes
// per statement. It measures 25.0. A per-statement location table cost 7.5
// more (32.5); a build whose seals drop their label buffers and regrow them
// every epoch, keys its value groups by strings and encodes through bit
// stacks measured 45.8.
func TestStreamingBuildAllocBudget(t *testing.T) {
	checkMcfAllocs(t, "core.BuildStreaming(EpochTS=2048)", 28, func(st *interp.Static, ropts interp.Options) (*interp.Result, error) {
		_, _, res, err := core.BuildStreaming(st, ropts, core.FreezeOptions{EpochTS: 1 << 11, Workers: 1})
		return res, err
	})
}

// checkMcfAllocs requires build of mcf at scale 1 to allocate at most budget
// bytes per statement.
func checkMcfAllocs(t *testing.T, what string, budget float64, build func(*interp.Static, interp.Options) (*interp.Result, error)) {
	t.Helper()
	wl, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	prog, in := wl.Build(1)
	st, err := interp.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := build(st, interp.Options{Inputs: in})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perStmt := float64(after.TotalAlloc-before.TotalAlloc) / float64(res.Steps)
	t.Logf("%s of mcf: %.1f B/statement over %d statements", what, perStmt, res.Steps)
	if perStmt > budget {
		t.Errorf("%s of mcf allocates %.1f B/statement, budget %.0f", what, perStmt, budget)
	}
}

// TestSliceAllocBudget pins what a backward slice allocates: bytes per slice
// instance over the four li slices of TestBackwardSliceStepsPerSeek, at tier
// 2. It measures 54, of which 24 are the result's Instances, allocated once at
// their exact size; the rest is the visited set's pages and a cursor pair and
// label window per edge read, which a batch this small (2,400 instances a
// slice) does not spread thin. The worklist slicer spent 147 on it: a map
// entry per instance, and the stack and the result regrown by doubling.
func TestSliceAllocBudget(t *testing.T) {
	tr := runWorkload(t, "li")
	crit := spacedCriteria(t, tr)
	instances := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, c := range crit {
		res, err := tr.Backward(c, 0)
		if err != nil {
			t.Fatal(err)
		}
		instances += len(res.Instances)
	}
	runtime.ReadMemStats(&after)
	perInst := float64(after.TotalAlloc-before.TotalAlloc) / float64(instances)
	t.Logf("Backward(li x4): %.1f B/instance over %d instances", perInst, instances)
	if perInst > 65 {
		t.Errorf("backward slices allocate %.1f B/instance, budget 65", perInst)
	}
}

// TestSaveAllocBudget pins what Trace.Save allocates: its one frame buffer
// (96 KiB, sections are framed into it and written out 64 KiB at a time) and
// next to nothing per container byte, on the li container of
// TestOpenAllocBudget (v4, many epochs) and on li in one epoch (v3). Writing
// every field through encoding/binary and a bufio.Writer (one boxed value
// per field, one scratch slice per array, two escaping frame buffers per
// section) measured 210 and 169 allocations/KiB and 548 and 200 KB per save
// on these containers.
func TestSaveAllocBudget(t *testing.T) {
	const maxAllocsPerKiB, maxBytes = 0.1, 100 << 10
	for _, c := range []struct {
		name    string
		epochTS uint32
	}{{"v4, EpochTS=256", 1 << 8}, {"v3", 0}} {
		tr := runWorkload(t, "li", wet.WithEpochTS(c.epochTS))
		size := len(saveBytes(t, tr))
		save := func() {
			if err := tr.Save(io.Discard); err != nil {
				t.Fatal(err)
			}
		}
		const runs = 10
		allocs := testing.AllocsPerRun(runs, save) / (float64(size) / 1024)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			save()
		}
		runtime.ReadMemStats(&after)
		perSave := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("Save(li, %s): %.2f allocations/KiB, %d B allocated per save (%d B container)", c.name, allocs, perSave, size)
		if allocs > maxAllocsPerKiB || perSave > maxBytes {
			t.Errorf("Save(li, %s) allocates %.2f/KiB and %d B, budget %.2f and %d", c.name, allocs, perSave, maxAllocsPerKiB, maxBytes)
		}
	}
}

// TestOpenAllocBudget pins what wet.Open allocates, as counts: allocations per
// KiB of container and bytes allocated per container byte, eager and lazy, at
// one worker, on a multi-epoch li container. The ceilings are the measured
// numbers plus 5%. Decoding sections through io.Reader and encoding/binary
// (one boxed pointer per field, chunked array reads, every deferred stream
// decoded and then copied) measured 319 and 307 allocations/KiB and 8.7 and
// 7.8 B/byte on this container.
func TestOpenAllocBudget(t *testing.T) {
	data := saveBytes(t, runWorkload(t, "li", wet.WithEpochTS(1<<8)))
	for _, mode := range openModes {
		open := func() {
			tr, _, err := wet.Open(bytes.NewReader(data), mode.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Epochs() < 2 {
				t.Fatalf("want a multi-epoch container, got %d epoch(s)", tr.Epochs())
			}
		}
		const runs = 10
		allocs := testing.AllocsPerRun(runs, open) / (float64(len(data)) / 1024)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			open()
		}
		runtime.ReadMemStats(&after)
		perByte := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(len(data))
		t.Logf("wet.Open(li, %s): %.1f allocations/KiB, %.2f B allocated/container byte (%d B container)",
			mode.name, allocs, perByte, len(data))
		if allocs > mode.allocsPerKiB || perByte > mode.bytesPerByte {
			t.Errorf("wet.Open(li, %s) allocates %.1f/KiB and %.2f B/byte, budget %.1f and %.2f",
				mode.name, allocs, perByte, mode.allocsPerKiB, mode.bytesPerByte)
		}
	}
}

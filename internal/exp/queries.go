package exp

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"wet/internal/core"
	"wet/internal/query"
	"wet/internal/trace"
)

// timeIt runs f and returns its duration.
func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// Table6 prints control-flow trace extraction rates, forward and backward,
// after tier-1 and tier-2 compression (paper Table 6).
func Table6(runs []*Run, w io.Writer) error {
	fmt.Fprintf(w, "Table 6. Response times for control flow traces.\n")
	fmt.Fprintf(w, "%-10s %10s |%22s |%22s |%22s |%22s\n", "", "", "Fwd Tier-1", "Fwd Tier-2", "Bwd Tier-1", "Bwd Tier-2")
	fmt.Fprintf(w, "%-10s %10s |%10s %11s |%10s %11s |%10s %11s |%10s %11s\n",
		"Benchmark", "CF (KB)", "ms", "MB/s", "ms", "MB/s", "ms", "MB/s", "ms", "MB/s")
	var sink uint64
	for _, r := range runs {
		traceBytes := r.Stmts * trace.TSBytes
		row := []float64{}
		for _, dir := range []bool{true, false} {
			for _, tier := range []core.Tier{core.Tier1, core.Tier2} {
				var err error
				d := timeIt(func() {
					var n uint64
					n, err = query.ExtractCFCtx(context.Background(), r.W, tier, dir, -1, nil)
					sink += n
				})
				if err != nil {
					return err
				}
				row = append(row, float64(d.Microseconds())/1e3, mb(traceBytes)/d.Seconds())
			}
		}
		fmt.Fprintf(w, "%-10s %10.1f |%10.2f %11.1f |%10.2f %11.1f |%10.2f %11.1f |%10.2f %11.1f\n",
			r.Name, kb(traceBytes),
			row[0], row[1], row[2], row[3], row[4], row[5], row[6], row[7])
	}
	_ = sink
	return nil
}

// Table7 prints per-instruction load value trace extraction (paper Table 7).
func Table7(runs []*Run, w io.Writer) error {
	fmt.Fprintf(w, "Table 7. Response times for per instruction load value traces.\n")
	fmt.Fprintf(w, "%-10s %14s |%10s %11s |%10s %11s\n",
		"Benchmark", "LdVal (KB)", "T1 ms", "T1 MB/s", "T2 ms", "T2 MB/s")
	for _, r := range runs {
		var n uint64
		var err error
		d1 := timeIt(func() { n, err = query.LoadValueTraces(r.W, core.Tier1, nil) })
		if err != nil {
			return err
		}
		d2 := timeIt(func() { n, err = query.LoadValueTraces(r.W, core.Tier2, nil) })
		if err != nil {
			return err
		}
		bytes := n * trace.ValBytes
		fmt.Fprintf(w, "%-10s %14.2f |%10.2f %11.2f |%10.2f %11.2f\n",
			r.Name, kb(bytes),
			float64(d1.Microseconds())/1e3, mb(bytes)/d1.Seconds(),
			float64(d2.Microseconds())/1e3, mb(bytes)/d2.Seconds())
	}
	return nil
}

// Table8 prints per-instruction load/store address trace extraction
// (paper Table 8).
func Table8(runs []*Run, w io.Writer) error {
	fmt.Fprintf(w, "Table 8. Response times for per instruction load/store address traces.\n")
	fmt.Fprintf(w, "%-10s %14s |%10s %11s |%10s %11s\n",
		"Benchmark", "Addr (KB)", "T1 ms", "T1 MB/s", "T2 ms", "T2 MB/s")
	for _, r := range runs {
		var n uint64
		var err error
		d1 := timeIt(func() { n, err = query.AddressTraces(r.W, core.Tier1, nil) })
		if err != nil {
			return err
		}
		d2 := timeIt(func() { n, err = query.AddressTraces(r.W, core.Tier2, nil) })
		if err != nil {
			return err
		}
		bytes := n * trace.ValBytes
		fmt.Fprintf(w, "%-10s %14.2f |%10.2f %11.2f |%10.2f %11.2f\n",
			r.Name, kb(bytes),
			float64(d1.Microseconds())/1e3, mb(bytes)/d1.Seconds(),
			float64(d2.Microseconds())/1e3, mb(bytes)/d2.Seconds())
	}
	return nil
}

// SliceCriteria picks n def-statement instances spread evenly across the
// run's timeline (the paper averages over 25 slices).
func SliceCriteria(w *core.WET, n int) []query.Instance {
	var out []query.Instance
	for k := 1; k <= n; k++ {
		ts := uint32(uint64(w.Time) * uint64(k) / uint64(n+1))
		if ts < 1 {
			ts = 1
		}
		// Find the node execution at ts, then a def statement in it.
		in, ok := defInstanceAt(w, ts)
		if ok {
			out = append(out, in)
		}
	}
	return out
}

func defInstanceAt(w *core.WET, ts uint32) (query.Instance, bool) {
	for ni, node := range w.Nodes {
		seq := w.TSSeq(node, core.Tier2)
		for ord := 0; ord < node.Execs; ord++ {
			if core.SeqAt(seq, ord) == ts {
				for pos := len(node.Stmts) - 1; pos >= 0; pos-- {
					s := node.Stmts[pos]
					if s.Op.HasDef() && s.Dest >= 0 {
						return query.Instance{Node: ni, Pos: pos, Ord: ord}, true
					}
				}
			}
		}
	}
	return query.Instance{}, false
}

// Table9 prints backward WET slice times averaged over the criteria set
// (paper Table 9).
func Table9(runs []*Run, slices int, w io.Writer) error {
	fmt.Fprintf(w, "Table 9. WET slices (avg. over %d slices).\n", slices)
	fmt.Fprintf(w, "%-10s %12s %12s %12s %14s\n", "Benchmark", "Tier-1 (ms)", "Tier-2 (ms)", "T2/T1", "avg |slice|")
	for _, r := range runs {
		crit := SliceCriteria(r.W, slices)
		if len(crit) == 0 {
			return fmt.Errorf("exp: %s: no slice criteria found", r.Name)
		}
		var sz int
		var d1, d2 time.Duration
		for _, c := range crit {
			var res *query.SliceResult
			var err error
			d1 += timeIt(func() { res, err = query.BackwardSlice(r.W, core.Tier1, c, 0) })
			if err != nil {
				return err
			}
			d2 += timeIt(func() { res, err = query.BackwardSlice(r.W, core.Tier2, c, 0) })
			if err != nil {
				return err
			}
			sz += len(res.Instances)
		}
		n := float64(len(crit))
		t1 := float64(d1.Microseconds()) / 1e3 / n
		t2 := float64(d2.Microseconds()) / 1e3 / n
		ratio := 0.0
		if t1 > 0 {
			ratio = t2 / t1
		}
		fmt.Fprintf(w, "%-10s %12.3f %12.3f %12.2f %14.1f\n", r.Name, t1, t2, ratio, float64(sz)/n)
	}
	return nil
}

// Figure8 prints the relative sizes of the three WET components at each
// compression level (paper Figure 8).
func Figure8(runs []*Run, w io.Writer) {
	fmt.Fprintf(w, "Figure 8. Relative sizes of WET components (%% ts-nodes / vals-nodes / tspairs-edges).\n")
	fmt.Fprintf(w, "%-10s |%24s |%24s |%24s\n", "Benchmark", "Original", "After Tier-1", "After Tier-2")
	pct := func(a, b, c uint64) (x, y, z float64) {
		t := float64(a + b + c)
		if t == 0 {
			return 0, 0, 0
		}
		return 100 * float64(a) / t, 100 * float64(b) / t, 100 * float64(c) / t
	}
	for _, r := range runs {
		o1, o2, o3 := pct(r.Rep.OrigTS, r.Rep.OrigVals, r.Rep.OrigEdges)
		a1, a2, a3 := pct(r.Rep.T1TS, r.Rep.T1Vals, r.Rep.T1Edges)
		b1, b2, b3 := pct(r.Rep.T2TS, r.Rep.T2Vals, r.Rep.T2Edges)
		fmt.Fprintf(w, "%-10s |%7.1f %7.1f %7.1f  |%7.1f %7.1f %7.1f  |%7.1f %7.1f %7.1f\n",
			r.Name, o1, o2, o3, a1, a2, a3, b1, b2, b3)
	}
}

// Figure9 prints the compression ratio as a function of execution length
// (paper Figure 9): each workload is rebuilt at growing scales.
func Figure9(ctx context.Context, cfg Config, w io.Writer, progress io.Writer) error {
	ws, err := cfg.workloads()
	if err != nil {
		return err
	}
	multipliers := []uint64{1, 2, 4, 8}
	fmt.Fprintf(w, "Figure 9. Scalability of compression ratio (Orig/Comp vs run length).\n")
	fmt.Fprintf(w, "%-10s", "Benchmark")
	base := cfg.targets() / 4
	for _, m := range multipliers {
		fmt.Fprintf(w, " %9dK", base*m/1000)
	}
	fmt.Fprintf(w, "\n")
	for _, wl := range ws {
		fmt.Fprintf(w, "%-10s", wl.Name)
		for _, m := range multipliers {
			if progress != nil {
				fmt.Fprintf(progress, "figure9: %s x%d\n", wl.Name, m)
			}
			r, err := BuildRun(ctx, wl, base*m, cfg.Workers)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %10.2f", core.Ratio(r.Rep.OrigTotal(), r.Rep.T2Total()))
		}
		fmt.Fprintf(w, "\n")
	}
	return nil
}

// MethodCensus prints which tier-2 methods the selector picked (diagnostic,
// mirrors the paper's §4 Selection discussion). Method names are emitted in
// sorted order so the report is byte-stable across runs.
func MethodCensus(runs []*Run, w io.Writer) {
	fmt.Fprintf(w, "Tier-2 method selection census (streams per method).\n")
	for _, r := range runs {
		fmt.Fprintf(w, "%-10s", r.Name)
		names := make([]string, 0, len(r.Rep.Methods))
		for name := range r.Rep.Methods {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "  %s:%d", name, r.Rep.Methods[name])
		}
		fmt.Fprintf(w, "\n")
	}
}

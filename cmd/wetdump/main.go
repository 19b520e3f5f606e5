// Command wetdump inspects a saved WET file (v2, v3, or epoch-segmented
// v4): graph statistics, hot paths, per-component sizes, the tier-2 method
// census, and optionally a DOT graph of a backward slice. -verify walks the file's sections and reports each
// checksum without loading; -salvage loads what a damaged file still holds.
//
// Exit codes: 0 ok, 1 error, 2 usage, 3 integrity failure, 4 loaded with
// data loss under -salvage.
//
// Usage:
//
//	wetdump trace.wet
//	wetdump -paths 20 trace.wet
//	wetdump -verify trace.wet
//	wetdump -verify -semantic trace.wet
//	wetdump -salvage damaged.wet
//	wetdump -slice-ts 1234 -dot slice.dot trace.wet
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"wet/internal/cliutil"
	"wet/internal/core"
	"wet/internal/query"
	"wet/internal/stream"
	"wet/internal/wetio"
)

// fail aborts the in-progress dump: by this point the WET loaded, so the
// failure is a query/output error, not an integrity one.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "wetdump:", err)
	os.Exit(cliutil.ExitError)
}

func main() {
	paths := flag.Int("paths", 10, "number of hot paths to list")
	sliceTS := flag.Uint("slice-ts", 0, "backward-slice the last def at this timestamp")
	dotFile := flag.String("dot", "", "write the slice as Graphviz DOT to this file")
	verify := flag.Bool("verify", false, "walk all sections and report per-section CRC status, loading nothing")
	semantic := flag.Bool("semantic", false, "with -verify: also validate structure and certify the trace against its program's static semantics")
	salvage := flag.Bool("salvage", false, "recover what a damaged file still holds")
	lazy := flag.Bool("lazy", false, "defer stream decode to first query touch (the per-epoch lines then show which segments a dump actually decoded)")
	timeout := flag.Duration("timeout", 0, "abort after this duration (exit code 5); 0 = no limit")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: wetdump [flags] trace.wet")
		os.Exit(cliutil.ExitUsage)
	}
	// ^C or -timeout expiry cancels the load/verify walk cooperatively; a
	// cancelled run exits with code 5 rather than reporting the file corrupt.
	ctx, stop := cliutil.Context(*timeout)
	defer stop()
	if *verify {
		os.Exit(runVerify(ctx, flag.Arg(0), *semantic))
	}
	os.Exit(cliutil.LoadWET(os.Stderr, "wetdump", flag.Arg(0), wetio.LoadOptions{Ctx: ctx, Salvage: *salvage, Lazy: *lazy},
		func(w *core.WET) int {
			dump(w, *paths, *sliceTS, *dotFile)
			return cliutil.ExitOK
		}))
}

// runVerify walks the file's sections, printing one CRC-status line each,
// and returns ExitIntegrity on the first failure.
func runVerify(ctx context.Context, path string, semantic bool) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wetdump:", err)
		return cliutil.ExitError
	}
	defer f.Close()
	if semantic {
		return runVerifySemantic(f)
	}
	res, err := wetio.VerifyCtx(ctx, f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wetdump:", err)
		if cliutil.IsCancelled(err) {
			return cliutil.ExitCancelled
		}
		return cliutil.ExitIntegrity
	}
	for _, s := range res.Sections {
		fmt.Println(s)
	}
	if res.Truncated {
		fmt.Println("file truncated: end marker never reached")
	}
	if res.TailSkipped > 0 {
		fmt.Printf("unframeable tail: %d bytes\n", res.TailSkipped)
	}
	if !res.OK() {
		fmt.Printf("FAILED: %d bad sections\n", res.BadSections)
		return cliutil.ExitIntegrity
	}
	fmt.Printf("ok: %d sections verified\n", len(res.Sections))
	return cliutil.ExitOK
}

// runVerifySemantic climbs the full verification ladder: bytes (CRCs),
// structure (core.Validate), semantics (sanalysis.VerifyWET).
func runVerifySemantic(f *os.File) int {
	res, err := wetio.VerifySemantic(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wetdump:", err)
		return cliutil.ExitIntegrity
	}
	switch {
	case !res.Bytes.OK():
		fmt.Printf("bytes: FAILED (%d bad sections, truncated=%v)\n", res.Bytes.BadSections, res.Bytes.Truncated)
		return cliutil.ExitIntegrity
	case res.StructureErr != nil:
		fmt.Printf("bytes: ok (%d sections)\nstructure: FAILED: %v\n", len(res.Bytes.Sections), res.StructureErr)
		return cliutil.ExitIntegrity
	}
	fmt.Printf("bytes: ok (%d sections)\nstructure: ok\n", len(res.Bytes.Sections))
	rep := res.Semantic
	if rep.Skipped != "" {
		fmt.Printf("semantics: skipped (%s)\n", rep.Skipped)
		return cliutil.ExitOK
	}
	for _, fd := range rep.Findings {
		fmt.Println(fd)
	}
	if !rep.OK() {
		fmt.Printf("semantics: FAILED (%d findings)\n", len(rep.Findings))
		return cliutil.ExitIntegrity
	}
	fmt.Printf("semantics: ok (%d nodes, %d edges, %d labels, %d transitions certified)\n",
		rep.Nodes, rep.Edges, rep.Labels, rep.Transitions)
	return cliutil.ExitOK
}

func dump(w *core.WET, paths int, sliceTS uint, dotFile string) {
	fmt.Printf("file         %s\n", flag.Arg(0))
	fmt.Printf("program      %d funcs, %d statements, %d basic blocks\n",
		len(w.Prog.Funcs), len(w.Prog.Stmts), w.Prog.NumBlocks())
	fmt.Printf("run          %d statements, %d block execs, %d path execs\n",
		w.Raw.StmtExecs, w.Raw.BlockExecs, w.Raw.PathExecs)
	fmt.Printf("dependences  %d data, %d control\n", w.Raw.DynDD, w.Raw.DynCD)
	fmt.Printf("graph        %d path nodes, %d dependence edges\n", len(w.Nodes), len(w.Edges))
	if w.Segmented() {
		fmt.Printf("epochs       %d sealed at %d timestamps each (format v4)\n", w.Epochs, w.EpochTS)
		for e, st := range epochSegStats(w) {
			fmt.Printf("  epoch %-4d %5d segments %10d payload bytes  decoded %d/%d\n",
				e, st.segs, st.bytes, st.decoded, st.segs)
		}
	}
	// Concurrency streams appear only on concurrent traces; files from
	// before the streams existed load with Conc == nil and dump as before.
	if c := w.Conc; c != nil {
		fmt.Printf("concurrency  %d threads, %d sync events, %d shared accesses\n",
			c.NumThreads(), c.SyncEvents(), c.SharedAccesses())
		for _, ns := range c.Named() {
			var bits uint64
			if ns.CS.S != nil {
				bits = ns.CS.S.SizeBits()
			}
			fmt.Printf("  %-12s %7d records %10d compressed bits\n", ns.Name, ns.CS.Len(), bits)
		}
	}
	fmt.Println()
	fmt.Print(w.Report().String())
	// A byte-budgeted container carries its fidelity section; surface what
	// the freeze shed so an operator knows which queries this file answers.
	if w.Fidelity.Degraded() {
		fmt.Println()
		fmt.Println(w.Fidelity.String())
	}

	fmt.Printf("\ntier-2 methods:")
	type mc struct {
		name string
		n    int
	}
	var ms []mc
	for name, n := range w.Report().Methods {
		ms = append(ms, mc{name, n})
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].n > ms[j].n })
	for i, m := range ms {
		if i >= 8 {
			fmt.Printf(" +%d more", len(ms)-8)
			break
		}
		fmt.Printf(" %s:%d", m.name, m.n)
	}
	fmt.Println()

	fmt.Printf("\nhot paths (top %d):\n", paths)
	fmt.Printf("%6s %4s %10s %8s %8s %10s\n", "node", "fn", "path", "execs", "stmts", "coverage")
	for _, hp := range query.HotPaths(w, paths) {
		fmt.Printf("%6d %4d %10d %8d %8d %9.1f%%\n",
			hp.Node, hp.Fn, hp.PathID, hp.Execs, hp.Stmts, 100*hp.Coverage)
	}

	if sliceTS > 0 {
		in, err := defAt(w, uint32(sliceTS))
		if err != nil {
			fail(err)
		}
		res, err := query.BackwardSlice(w, core.Tier2, in, 0)
		if err != nil {
			fail(err)
		}
		fmt.Printf("\nbackward slice at ts %d: %d instances, %d edge instances\n",
			sliceTS, len(res.Instances), res.Edges)
		if dotFile != "" {
			out, err := os.Create(dotFile)
			if err != nil {
				fail(err)
			}
			if err := query.WriteDOT(w, core.Tier2, res, out); err != nil {
				fail(err)
			}
			if err := out.Close(); err != nil {
				fail(err)
			}
			fmt.Printf("wrote %s\n", dotFile)
		}
	}
}

// segStats aggregates one epoch's segment storage: stream-backed segment
// count, compressed payload bytes, and how many of those segments are
// decoded (an eager open decodes all; a -lazy open decodes only what the
// dump's own queries touched).
type segStats struct {
	segs, decoded int
	bytes         uint64
}

// epochSegStats walks every stream-backed segment of a segmented WET —
// node timestamps, group patterns, unique values, edge labels — without
// forcing any deferred decode, and buckets them by epoch. Shared edge
// segments reference their representative's streams and are not re-counted;
// inferable segments store nothing and do not appear.
func epochSegStats(w *core.WET) []segStats {
	st := make([]segStats, w.Epochs)
	add := func(epoch int, s stream.Stream) {
		if s == nil {
			return
		}
		e := &st[epoch]
		e.segs++
		e.bytes += (s.SizeBits() + 7) / 8
		if stream.Materialized(s) {
			e.decoded++
		}
	}
	for _, n := range w.Nodes {
		for _, sg := range n.TSSegs {
			add(sg.Epoch, sg.S)
		}
		for _, g := range n.Groups {
			for _, sg := range g.PatSegs {
				add(sg.Epoch, sg.S)
			}
			for _, segs := range g.UValSegs {
				for _, sg := range segs {
					add(sg.Epoch, sg.S)
				}
			}
		}
	}
	for _, e := range w.Edges {
		for _, sg := range e.Segs {
			if sg.SharedWith >= 0 {
				continue
			}
			add(sg.Epoch, sg.DstS)
			if !sg.Diagonal {
				add(sg.Epoch, sg.SrcS)
			}
		}
	}
	return st
}

// defAt finds the last def-port statement instance at the given timestamp.
// On a budget-degraded trace with widened timestamps the exact-TS scan is
// unanswerable; the capability panic surfaces as a typed error, not a crash.
func defAt(w *core.WET, ts uint32) (in query.Instance, err error) {
	defer core.RecoverTyped(&err)
	for ni, n := range w.Nodes {
		seq := w.TSSeq(n, core.Tier2)
		for ord := 0; ord < n.Execs; ord++ {
			if core.SeqAt(seq, ord) != ts {
				continue
			}
			for pos := len(n.Stmts) - 1; pos >= 0; pos-- {
				if n.Stmts[pos].Op.HasDef() && n.Stmts[pos].Dest >= 0 {
					return query.Instance{Node: ni, Pos: pos, Ord: ord}, nil
				}
			}
		}
	}
	return query.Instance{}, fmt.Errorf("no def statement executed at ts %d (time runs 1..%d)", ts, w.Time)
}

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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"wet/internal/cliutil"
	"wet/internal/core"
	"wet/internal/query"
	"wet/internal/stream"
	"wet/internal/wetio"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command with its arguments and output streams; it returns the
// exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wetdump", flag.ContinueOnError)
	fs.SetOutput(stderr)
	paths := fs.Int("paths", 10, "number of hot paths to list")
	sliceTS := cliutil.Uint32(fs, "slice-ts", 0, "backward-slice the last def at this timestamp")
	dotFile := fs.String("dot", "", "write the slice as Graphviz DOT to this file")
	verify := fs.Bool("verify", false, "walk all sections and report per-section CRC status, loading nothing")
	semantic := fs.Bool("semantic", false, "with -verify: also validate structure and certify the trace against its program's static semantics")
	salvage := fs.Bool("salvage", false, "recover what a damaged file still holds")
	lazy := fs.Bool("lazy", false, "defer stream decode to first query touch (the per-epoch lines then show which segments a dump actually decoded)")
	timeout := fs.Duration("timeout", 0, "abort after this duration (exit code 5); 0 = no limit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return cliutil.ExitOK
		}
		return cliutil.ExitUsage
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: wetdump [flags] trace.wet")
		return cliutil.ExitUsage
	}
	path := fs.Arg(0)
	// ^C or -timeout expiry cancels the load/verify walk cooperatively; a
	// cancelled run exits with code 5 rather than reporting the file corrupt.
	ctx, stop := cliutil.Context(*timeout)
	defer stop()
	if *verify {
		return runVerify(ctx, stdout, stderr, path, *semantic)
	}
	return cliutil.LoadWET(stderr, "wetdump", path, wetio.LoadOptions{Ctx: ctx, Salvage: *salvage, Lazy: *lazy},
		func(w *core.WET) int {
			// Past the load, a failure is a query or output error.
			if err := dump(stdout, w, path, *paths, *sliceTS, *dotFile); err != nil {
				fmt.Fprintln(stderr, "wetdump:", err)
				return cliutil.ExitError
			}
			return cliutil.ExitOK
		})
}

// runVerify walks the file's sections, printing one CRC-status line each,
// and returns ExitIntegrity on the first failure.
func runVerify(ctx context.Context, stdout, stderr io.Writer, path string, semantic bool) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(stderr, "wetdump:", err)
		return cliutil.ExitError
	}
	defer f.Close()
	if semantic {
		return runVerifySemantic(stdout, stderr, f)
	}
	res, err := wetio.VerifyCtx(ctx, f)
	if err != nil {
		fmt.Fprintln(stderr, "wetdump:", err)
		if cliutil.IsCancelled(err) {
			return cliutil.ExitCancelled
		}
		return cliutil.ExitIntegrity
	}
	for _, s := range res.Sections {
		fmt.Fprintln(stdout, s)
	}
	if res.Truncated {
		fmt.Fprintln(stdout, "file truncated: end marker never reached")
	}
	if res.TailSkipped > 0 {
		fmt.Fprintf(stdout, "unframeable tail: %d bytes\n", res.TailSkipped)
	}
	if !res.OK() {
		fmt.Fprintf(stdout, "FAILED: %d bad sections\n", res.BadSections)
		return cliutil.ExitIntegrity
	}
	fmt.Fprintf(stdout, "ok: %d sections verified\n", len(res.Sections))
	return cliutil.ExitOK
}

// runVerifySemantic climbs the full verification ladder: bytes (CRCs),
// structure (core.Validate), semantics (sanalysis.VerifyWET).
func runVerifySemantic(stdout, stderr io.Writer, f *os.File) int {
	res, err := wetio.VerifySemantic(f)
	if err != nil {
		fmt.Fprintln(stderr, "wetdump:", err)
		return cliutil.ExitIntegrity
	}
	switch {
	case !res.Bytes.OK():
		fmt.Fprintf(stdout, "bytes: FAILED (%d bad sections, truncated=%v)\n", res.Bytes.BadSections, res.Bytes.Truncated)
		return cliutil.ExitIntegrity
	case res.StructureErr != nil:
		fmt.Fprintf(stdout, "bytes: ok (%d sections)\nstructure: FAILED: %v\n", len(res.Bytes.Sections), res.StructureErr)
		return cliutil.ExitIntegrity
	}
	fmt.Fprintf(stdout, "bytes: ok (%d sections)\nstructure: ok\n", len(res.Bytes.Sections))
	rep := res.Semantic
	if rep.Skipped != "" {
		fmt.Fprintf(stdout, "semantics: skipped (%s)\n", rep.Skipped)
		return cliutil.ExitOK
	}
	for _, fd := range rep.Findings {
		fmt.Fprintln(stdout, fd)
	}
	if !rep.OK() {
		fmt.Fprintf(stdout, "semantics: FAILED (%d findings)\n", len(rep.Findings))
		return cliutil.ExitIntegrity
	}
	fmt.Fprintf(stdout, "semantics: ok (%d nodes, %d edges, %d labels, %d transitions certified)\n",
		rep.Nodes, rep.Edges, rep.Labels, rep.Transitions)
	return cliutil.ExitOK
}

func dump(stdout io.Writer, w *core.WET, path string, paths int, sliceTS uint32, dotFile string) error {
	fmt.Fprintf(stdout, "file         %s\n", path)
	fmt.Fprintf(stdout, "program      %d funcs, %d statements, %d basic blocks\n",
		len(w.Prog.Funcs), len(w.Prog.Stmts), w.Prog.NumBlocks())
	fmt.Fprintf(stdout, "run          %d statements, %d block execs, %d path execs\n",
		w.Raw.StmtExecs, w.Raw.BlockExecs, w.Raw.PathExecs)
	fmt.Fprintf(stdout, "dependences  %d data, %d control\n", w.Raw.DynDD, w.Raw.DynCD)
	fmt.Fprintf(stdout, "graph        %d path nodes, %d dependence edges\n", len(w.Nodes), len(w.Edges))
	if w.Segmented() {
		fmt.Fprintf(stdout, "epochs       %d sealed at %d timestamps each (format v4)\n", w.Epochs, w.EpochTS)
		for e, st := range epochSegStats(w) {
			fmt.Fprintf(stdout, "  epoch %-4d %5d segments %10d payload bytes  decoded %d/%d\n",
				e, st.segs, st.bytes, st.decoded, st.segs)
		}
	}
	// Concurrency streams appear only on concurrent traces; files from
	// before the streams existed load with Conc == nil and dump as before.
	if c := w.Conc; c != nil {
		fmt.Fprintf(stdout, "concurrency  %d threads, %d sync events, %d shared accesses\n",
			c.NumThreads(), c.SyncEvents(), c.SharedAccesses())
		for _, ns := range c.Named() {
			var bits uint64
			if ns.CS.S != nil {
				bits = ns.CS.S.SizeBits()
			}
			fmt.Fprintf(stdout, "  %-12s %7d records %10d compressed bits\n", ns.Name, ns.CS.Len(), bits)
		}
	}
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, w.Report().String())
	// A byte-budgeted container carries its fidelity section; surface what
	// the freeze shed so an operator knows which queries this file answers.
	if w.Fidelity.Degraded() {
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, w.Fidelity.String())
	}

	fmt.Fprintf(stdout, "\ntier-2 methods:")
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
			fmt.Fprintf(stdout, " +%d more", len(ms)-8)
			break
		}
		fmt.Fprintf(stdout, " %s:%d", m.name, m.n)
	}
	fmt.Fprintln(stdout)

	fmt.Fprintf(stdout, "\nhot paths (top %d):\n", paths)
	fmt.Fprintf(stdout, "%6s %4s %10s %8s %8s %10s\n", "node", "fn", "path", "execs", "stmts", "coverage")
	for _, hp := range query.HotPaths(w, paths) {
		fmt.Fprintf(stdout, "%6d %4d %10d %8d %8d %9.1f%%\n",
			hp.Node, hp.Fn, hp.PathID, hp.Execs, hp.Stmts, 100*hp.Coverage)
	}

	if sliceTS > 0 {
		in, err := defAt(w, sliceTS)
		if err != nil {
			return err
		}
		res, err := query.BackwardSlice(w, core.Tier2, in, 0)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nbackward slice at ts %d: %d instances, %d edge instances\n",
			sliceTS, len(res.Instances), res.Edges)
		if dotFile != "" {
			out, err := os.Create(dotFile)
			if err != nil {
				return err
			}
			// The file is closed on every path, its Close error reported.
			if err := errors.Join(query.WriteDOT(w, core.Tier2, res, out), out.Close()); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s\n", dotFile)
		}
	}
	return nil
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
			add(sg.Epoch, sg.SrcS)
		}
	}
	return st
}

// defAt finds the last def-port statement instance at the given timestamp.
// On a lazily opened trace a timestamp stream whose deferred decode fails
// surfaces as a typed error, not a crash.
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

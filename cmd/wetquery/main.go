// Command wetquery builds a workload's WET and answers profile queries
// against the compressed representation.
//
// Exit codes: 0 ok, 1 error, 2 usage, 3 integrity failure on -load,
// 4 loaded with data loss under -salvage. -tier is 1 or 2, and 1 only on a
// fresh build: a loaded file keeps tier 2 only.
//
// Usage:
//
//	wetquery -bench li -query cftrace -tier 2 -dir backward
//	wetquery -bench li -query cfrange -from 1000 -to 2000
//	wetquery -bench mcf -query values
//	wetquery -bench gzip -query addresses -tier 1
//	wetquery -bench twolf -query slice -slices 25
//	wetquery -bench twolf -query slice -parallel 8 -v
//	wetquery -bench vortex -query slice -cdprune
//	wetquery -bench li -query slice -criteria crit.txt -parallel 4
//	wetquery -load damaged.wet -salvage -query cftrace
//
// A -criteria file holds one slicing criterion per line as three integers
// "node pos ord" (blank lines and #-comments are skipped); the slices run
// concurrently on -parallel worker goroutines against the one shared WET.
// Under -v each query reports its wall time, and the run ends with the
// cursor seek statistics (how many seeks were served by a checkpoint
// restore rather than stepping).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"wet/internal/cliutil"
	"wet/internal/core"
	"wet/internal/exp"
	"wet/internal/query"
	"wet/internal/sanalysis"
	"wet/internal/stream"
	"wet/internal/trace"
	"wet/internal/wetio"
	"wet/internal/workload"
)

type opts struct {
	ctx            context.Context
	stdout, stderr io.Writer
	q              string
	tier           core.Tier
	dir            string
	from, to       uint32
	slices         int
	parallel       int
	criteria       string
	verbose        bool
	cdprune        bool
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command with its arguments and output streams; it returns the
// exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wetquery", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "gzip", "workload name")
	stmts := fs.Uint64("stmts", 400_000, "target dynamic statements")
	q := fs.String("query", "cftrace", "query: cftrace | cfrange | values | addresses | slice")
	tierN := fs.Int("tier", 2, "compression tier to query (1 or 2; 1 needs a fresh build, not -load)")
	dir := fs.String("dir", "forward", "cftrace direction: forward | backward")
	fromTS := cliutil.Uint32(fs, "from", 1, "cfrange window start timestamp (inclusive)")
	toTS := cliutil.Uint32(fs, "to", 0, "cfrange window end timestamp (inclusive; 0 = end of trace)")
	slices := fs.Int("slices", 25, "number of slices for -query slice")
	parallel := fs.Int("parallel", 1, "worker goroutines for -query slice (0 = GOMAXPROCS)")
	criteria := fs.String("criteria", "", "file of 'node pos ord' slicing criteria for -query slice")
	cdprune := fs.Bool("cdprune", false, "prune CD edges not supported by static control dependence before resolving their labels")
	verbose := fs.Bool("v", false, "per-query wall time and cursor checkpoint seek stats")
	load := fs.String("load", "", "query a saved WET file instead of rebuilding")
	salvage := fs.Bool("salvage", false, "with -load: recover what a damaged file still holds")
	timeout := fs.Duration("timeout", 0, "abort after this duration (exit code 5); 0 = no limit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return cliutil.ExitOK
		}
		return cliutil.ExitUsage
	}
	switch {
	case *tierN != 1 && *tierN != 2:
		fmt.Fprintf(stderr, "wetquery: -tier %d: the tiers are 1 and 2\n", *tierN)
		return cliutil.ExitUsage
	case *tierN == 1 && *load != "":
		fmt.Fprintln(stderr, "wetquery: -tier 1 needs a fresh build: a loaded file keeps tier 2 only")
		return cliutil.ExitUsage
	}

	// ^C or -timeout expiry cancels the load and the query batch
	// cooperatively; a cancelled run exits with code 5.
	ctx, stop := cliutil.Context(*timeout)
	defer stop()

	o := opts{
		ctx:      ctx,
		stdout:   stdout,
		stderr:   stderr,
		q:        *q,
		tier:     core.Tier(*tierN),
		dir:      *dir,
		from:     *fromTS,
		to:       *toTS,
		slices:   *slices,
		parallel: *parallel,
		criteria: *criteria,
		verbose:  *verbose,
		cdprune:  *cdprune,
	}
	if *load != "" {
		lopts := wetio.LoadOptions{Ctx: ctx, Salvage: *salvage}
		return cliutil.LoadWET(stderr, "wetquery", *load, lopts, func(wt *core.WET) int {
			run := &exp.Run{Name: *load, Stmts: wt.Raw.StmtExecs, W: wt, Rep: wt.Report()}
			return runQuery(run, o)
		})
	}

	w, err := workload.ByName(*bench)
	if err != nil {
		fmt.Fprintln(stderr, "wetquery:", err)
		return cliutil.ExitError
	}
	fmt.Fprintf(stderr, "building WET for %s...\n", w.Name)
	run, err := exp.BuildRun(ctx, w, *stmts, 0)
	if err != nil {
		fmt.Fprintln(stderr, "wetquery:", err)
		return cliutil.ExitCode(err)
	}
	return runQuery(run, o)
}

func runQuery(run *exp.Run, o opts) int {
	seeks := run.W.SeekCounters()
	if seeks == nil {
		seeks = new(stream.SeekCounters)
		run.W.AttachSeekCounters(seeks)
	}
	before := seeks.Read()
	delta := func() stream.SeekStats { return seeks.Read().Sub(before) }
	start := time.Now()
	switch o.q {
	case "cftrace":
		n, err := query.ExtractCFCtx(o.ctx, run.W, o.tier, o.dir == "forward", -1, nil)
		if err != nil {
			fmt.Fprintln(o.stderr, "wetquery:", err)
			return cliutil.ExitCode(err)
		}
		d := time.Since(start)
		bytes := n * trace.TSBytes
		fmt.Fprintf(o.stdout, "control flow trace: %d statements (%.2f MB) in %v (%s, %.2f MB/s)\n",
			n, float64(bytes)/(1<<20), d, o.dir, float64(bytes)/(1<<20)/d.Seconds())
	case "cfrange":
		to := o.to
		if to == 0 {
			to = run.W.Time
		}
		n, err := query.ExtractCFRangeCtx(o.ctx, run.W, o.tier, o.from, to, -1, nil)
		if err != nil {
			// An inverted window is a usage error, reported as such rather
			// than as an empty trace.
			var re *query.RangeError
			if errors.As(err, &re) {
				fmt.Fprintln(o.stderr, "wetquery:", re)
				return cliutil.ExitUsage
			}
			fmt.Fprintln(o.stderr, "wetquery:", err)
			return cliutil.ExitCode(err)
		}
		d := time.Since(start)
		fmt.Fprintf(o.stdout, "control flow window [%d, %d]: %d statements in %v\n", o.from, to, n, d)
	case "values":
		n, err := query.LoadValueTraces(run.W, o.tier, nil)
		if err != nil {
			fmt.Fprintln(o.stderr, "wetquery:", err)
			return cliutil.ExitError
		}
		d := time.Since(start)
		fmt.Fprintf(o.stdout, "load value traces: %d samples (%.2f MB) in %v\n", n, float64(n*4)/(1<<20), d)
	case "addresses":
		n, err := query.AddressTraces(run.W, o.tier, nil)
		if err != nil {
			fmt.Fprintln(o.stderr, "wetquery:", err)
			return cliutil.ExitError
		}
		d := time.Since(start)
		fmt.Fprintf(o.stdout, "load/store address traces: %d samples (%.2f MB) in %v\n", n, float64(n*4)/(1<<20), d)
	case "slice":
		return runSlices(run, o, delta, start)
	default:
		fmt.Fprintf(o.stderr, "wetquery: unknown query %q\n", o.q)
		return cliutil.ExitUsage
	}
	if o.verbose {
		printSeekStats(o.stdout, delta())
	}
	return cliutil.ExitOK
}

// runSlices executes the slice batch — from -criteria or auto-picked — on
// o.parallel worker goroutines over the one shared WET; seeks reads the
// WET's seek counters since the query began.
func runSlices(run *exp.Run, o opts, seeks func() stream.SeekStats, start time.Time) int {
	var crit []query.Instance
	if o.criteria != "" {
		var err error
		crit, err = parseCriteria(o.criteria, run.W)
		if err != nil {
			fmt.Fprintln(o.stderr, "wetquery:", err)
			return cliutil.ExitError
		}
	} else {
		crit = exp.SliceCriteria(run.W, o.slices)
	}
	if len(crit) == 0 {
		fmt.Fprintln(o.stderr, "wetquery: no slicing criteria")
		return cliutil.ExitError
	}

	sopts := query.SliceOptions{}
	if o.cdprune {
		an, err := sanalysis.Analyze(run.W.Prog)
		if err != nil {
			fmt.Fprintln(o.stderr, "wetquery:", err)
			return cliutil.ExitError
		}
		sopts.CDOracle = an
	}
	sizes := make([]int, len(crit))
	durs := make([]time.Duration, len(crit))
	pruned := make([]int, len(crit))
	// The batch stops claiming criteria once the context dies or a slice
	// fails; the first error (context.Cause on ^C / -timeout) surfaces here.
	if err := query.BatchCtx(o.ctx, o.parallel, len(crit), func(i int) error {
		qs := time.Now()
		res, err := query.BackwardSliceOpts(run.W, o.tier, crit[i], sopts)
		durs[i] = time.Since(qs)
		if err != nil {
			return fmt.Errorf("criterion %d (%+v): %w", i, crit[i], err)
		}
		sizes[i] = len(res.Instances)
		pruned[i] = res.PrunedCD
		return nil
	}); err != nil {
		fmt.Fprintln(o.stderr, "wetquery:", err)
		return cliutil.ExitCode(err)
	}
	wall := time.Since(start)
	delta := seeks()
	if o.verbose {
		for i, c := range crit {
			fmt.Fprintf(o.stdout, "  slice %3d: node=%-4d pos=%-3d ord=%-8d %8d instances  %v\n",
				i, c.Node, c.Pos, c.Ord, sizes[i], durs[i].Round(time.Microsecond))
		}
	}
	var instances, cpu int64
	for i := range crit {
		instances += int64(sizes[i])
		cpu += int64(durs[i])
	}
	fmt.Fprintf(o.stdout, "%d backward WET slices on %d workers: avg %.1f instances, avg %.3f ms, wall %v\n",
		len(crit), o.parallel, float64(instances)/float64(len(crit)),
		float64(cpu)/1e6/float64(len(crit)), wall.Round(time.Microsecond))
	if o.cdprune {
		var p int64
		for _, n := range pruned {
			p += int64(n)
		}
		fmt.Fprintf(o.stdout, "static-CD pruning: %d control edges refuted before label resolution\n", p)
	}
	if o.verbose {
		printSeekStats(o.stdout, delta)
	}
	return cliutil.ExitOK
}

// parseCriteria reads a batch criteria file: one "node pos ord" triple per
// line, validated against the WET's shape.
func parseCriteria(path string, w *core.WET) ([]query.Instance, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []query.Instance
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var node, pos, ord int
		if _, err := fmt.Sscanf(line, "%d %d %d", &node, &pos, &ord); err != nil {
			return nil, fmt.Errorf("%s:%d: want 'node pos ord': %v", path, ln+1, err)
		}
		if node < 0 || node >= len(w.Nodes) {
			return nil, fmt.Errorf("%s:%d: node %d outside [0,%d)", path, ln+1, node, len(w.Nodes))
		}
		n := w.Nodes[node]
		if pos < 0 || pos >= len(n.Stmts) {
			return nil, fmt.Errorf("%s:%d: pos %d outside node %d's %d statements", path, ln+1, pos, node, len(n.Stmts))
		}
		if ord < 0 || ord >= n.Execs {
			return nil, fmt.Errorf("%s:%d: ord %d outside node %d's %d executions", path, ln+1, ord, node, n.Execs)
		}
		out = append(out, query.Instance{Node: node, Pos: pos, Ord: ord})
	}
	return out, nil
}

// printSeekStats reports how the checkpointed cursors served this run's
// random accesses.
func printSeekStats(stdout io.Writer, d stream.SeekStats) {
	if d.Seeks == 0 {
		fmt.Fprintln(stdout, "cursor seeks: none (sequential access only)")
		return
	}
	fmt.Fprintf(stdout, "cursor seeks: %d, %.1f%% served by checkpoint restore, %.1f steps/seek\n",
		d.Seeks, 100*float64(d.Restores)/float64(d.Seeks),
		float64(d.Steps)/float64(d.Seeks))
}

// Command wetbench regenerates every table and figure of the paper's
// evaluation section on the nine synthetic workloads.
//
// Usage:
//
//	wetbench                  # everything (Tables 1-9, Figures 8-9)
//	wetbench -table 3         # a single table
//	wetbench -figure 9        # a single figure
//	wetbench -stmts 1000000   # longer runs
//	wetbench -workloads go,li # a subset of benchmarks
//	wetbench -timeout 10m     # bound the whole run (exit 5 on expiry)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"wet/internal/cliutil"
	"wet/internal/exp"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command with its arguments and output streams; it returns the
// exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wetbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	table := fs.Int("table", 0, "print only this table (1-9)")
	figure := fs.Int("figure", 0, "print only this figure (8 or 9)")
	stmts := fs.Uint64("stmts", exp.DefaultTargetStmts, "target dynamic statements per workload")
	workloads := fs.String("workloads", "", "comma separated subset of benchmarks")
	slices := fs.Int("slices", 25, "slice criteria for Table 9")
	census := fs.Bool("census", false, "also print the tier-2 method selection census")
	ablations := fs.Bool("ablations", false, "also print the design-choice ablations")
	workers := fs.Int("workers", 0, "tier-2 freeze worker pool size (0 = GOMAXPROCS, 1 = serial)")
	timeout := fs.Duration("timeout", 0, "abort the run after this duration (exit code 5); 0 = no limit")
	quiet := fs.Bool("q", false, "suppress progress output")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return cliutil.ExitOK
		}
		return cliutil.ExitUsage
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "wetbench:", err)
		return cliutil.ExitCode(err)
	}

	// ^C or -timeout expiry stops the build in flight: the interpreter
	// within 4096 steps, the freeze between jobs.
	ctx, stop := cliutil.Context(*timeout)
	defer stop()

	cfg := exp.Config{TargetStmts: *stmts, Slices: *slices, Workers: *workers}
	if *workloads != "" {
		cfg.Workloads = strings.Split(*workloads, ",")
	}
	progress := stderr
	if *quiet {
		progress = nil
	}

	out := stdout
	needRuns := *figure != 9 || *table != 0
	var runs []*exp.Run
	var err error
	if needRuns {
		runs, err = exp.RunAll(ctx, cfg, progress)
		if err != nil {
			return fatal(err)
		}
	}

	want := func(t int) bool { return (*table == 0 && *figure == 0) || *table == t }
	wantFig := func(f int) bool { return (*table == 0 && *figure == 0) || *figure == f }

	if want(1) {
		exp.Table1(runs, out)
		fmt.Fprintln(out)
	}
	if want(2) {
		exp.Table2(runs, out)
		fmt.Fprintln(out)
	}
	if want(3) {
		exp.Table3(runs, out)
		fmt.Fprintln(out)
	}
	if want(4) {
		exp.Table4(runs, out)
		fmt.Fprintln(out)
	}
	if want(5) {
		exp.Table5(runs, out)
		fmt.Fprintln(out)
	}
	if want(6) {
		exp.Table6(runs, out)
		fmt.Fprintln(out)
	}
	if want(7) {
		if err := exp.Table7(runs, out); err != nil {
			return fatal(err)
		}
		fmt.Fprintln(out)
	}
	if want(8) {
		if err := exp.Table8(runs, out); err != nil {
			return fatal(err)
		}
		fmt.Fprintln(out)
	}
	if want(9) {
		if err := exp.Table9(runs, cfg.Slices, out); err != nil {
			return fatal(err)
		}
		fmt.Fprintln(out)
	}
	if wantFig(8) {
		exp.Figure8(runs, out)
		fmt.Fprintln(out)
	}
	if wantFig(9) {
		if err := exp.Figure9(ctx, cfg, out, progress); err != nil {
			return fatal(err)
		}
		fmt.Fprintln(out)
	}
	if *census && runs != nil {
		exp.MethodCensus(runs, out)
	}
	if *ablations && runs != nil {
		if err := exp.AblationBLvsBB(ctx, "go", *stmts, out); err != nil {
			return fatal(err)
		}
		fmt.Fprintln(out)
		exp.AblationStreamMethods(runs, out)
		fmt.Fprintln(out)
		if err := exp.AblationValueGrouping(ctx, "bzip2", *stmts, out); err != nil {
			return fatal(err)
		}
		fmt.Fprintln(out)
		exp.AblationLocalTS(runs, out)
		fmt.Fprintln(out)
		exp.AblationSelection(runs, out)
		fmt.Fprintln(out)
		if err := exp.AblationAggressiveEdges(ctx, "mcf", *stmts, out); err != nil {
			return fatal(err)
		}
	}
	return cliutil.ExitOK
}

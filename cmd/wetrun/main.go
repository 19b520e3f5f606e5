// Command wetrun executes one workload, constructs its Whole Execution
// Trace, and prints the size report and graph statistics.
//
// Usage:
//
//	wetrun -bench gzip -stmts 500000
//	wetrun -bench li -scale 4 -census
//	wetrun -bench mcf -certify -o mcf.wet
//	wetrun -bench mcf -budget 2MiB -o mcf.wet       # land the container under a byte budget
//	wetrun -bench gcc -stmts 5000000 -epoch 65536   # streaming, epoch-segmented
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
	"wet/internal/exp"
	"wet/internal/interp"
	"wet/internal/sanalysis"
	"wet/internal/wetio"
	"wet/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command with its arguments and output streams; it returns the
// exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wetrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "gzip", "workload name (go gcc li gzip mcf parser vortex bzip2 twolf)")
	conc := fs.Bool("conc", false, "treat -bench as a concurrent variant name (li-conc-racy, li-conc-clean, gzip-conc-..., mcf-conc-...)")
	seed := fs.Uint64("seed", 0, "thread scheduler seed for -conc runs (0 = default interleaving)")
	stmts := fs.Uint64("stmts", 400_000, "target dynamic statements")
	scale := fs.Int("scale", 0, "fixed scale (overrides -stmts)")
	census := fs.Bool("census", false, "print the tier-2 method selection census")
	printIR := fs.Bool("ir", false, "dump the workload's IR")
	outFile := fs.String("o", "", "save the frozen WET to this file")
	workers := fs.Int("workers", 0, "tier-2 freeze worker pool size (0 = GOMAXPROCS, 1 = serial)")
	certify := fs.Bool("certify", false, "semantically certify the frozen WET against its static analysis before reporting/saving")
	budget := fs.String("budget", "", "byte budget for the frozen container (KiB/MiB/GiB suffixes); past the lossless floor the freeze sheds query capabilities in a fixed order and reports exactly what it lost")
	epoch := cliutil.Uint32(fs, "epoch", 0, "epoch size in timestamps: seal and tier-2 compress the profile per epoch while the run executes (0 = single-epoch; saves format v4)")
	timeout := fs.Duration("timeout", 0, "abort the run after this duration (exit code 5); 0 = no limit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return cliutil.ExitOK
		}
		return cliutil.ExitUsage
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "wetrun:", err)
		return cliutil.ExitCode(err)
	}

	var budgetBytes uint64
	if *budget != "" {
		var err error
		if budgetBytes, err = cliutil.ParseBytes(*budget); err != nil {
			fmt.Fprintln(stderr, "wetrun:", err)
			return cliutil.ExitUsage
		}
	}

	// ^C or -timeout expiry unwinds the pipeline cooperatively: the
	// interpreter stops within 4096 steps, partially built epochs are
	// released, and an interrupted -o save leaves no torn file behind.
	ctx, stop := cliutil.Context(*timeout)
	defer stop()

	fo := core.FreezeOptions{Workers: *workers, EpochTS: *epoch, ByteBudget: budgetBytes}
	if *conc {
		cw, err := workload.ConcByName(*bench)
		if err != nil {
			return fail(err)
		}
		run, err := exp.BuildConcRun(ctx, cw, *stmts, *seed, fo)
		if err != nil {
			return fail(err)
		}
		return report(ctx, stdout, stderr, workload.Workload{Name: cw.Name, Mimics: cw.Mimics}, run,
			*certify, *outFile, *census)
	}

	w, err := workload.ByName(*bench)
	if err != nil {
		return fail(err)
	}
	sc := *scale
	if sc == 0 {
		if sc, err = workload.ScaleFor(w, *stmts); err != nil {
			return fail(err)
		}
	}
	prog, in := w.Build(sc)
	if *printIR {
		fmt.Fprint(stdout, prog.String())
	}
	st, err := interp.Analyze(prog)
	if err != nil {
		return fail(err)
	}
	wet, rep, res, err := core.BuildStreaming(st, interp.Options{Ctx: ctx, Inputs: in}, fo)
	if err != nil {
		return fail(err)
	}
	run := &exp.Run{Name: w.Name, Stmts: res.Steps, Scale: sc, W: wet, Rep: rep}
	return report(ctx, stdout, stderr, w, run, *certify, *outFile, *census)
}

// report certifies/saves the built trace as requested and prints the run
// summary (shared by the sequential and -conc paths), and returns the exit
// code.
func report(ctx context.Context, stdout, stderr io.Writer, w workload.Workload, run *exp.Run, certify bool, outFile string, census bool) int {
	wet, rep := run.W, run.Rep
	if certify {
		if err := sanalysis.Certify(wet); err != nil {
			fmt.Fprintln(stderr, "wetrun:", err)
			return cliutil.ExitIntegrity
		}
		if wet.Conc != nil {
			fmt.Fprintln(stdout, "certified: structure only (sequential semantic replay is skipped on concurrent traces)")
		} else {
			fmt.Fprintln(stdout, "certified: trace is semantically consistent with its program")
		}
	}
	if outFile != "" {
		// Atomic save: temp file + fsync + rename, so an interrupted or
		// failed save never leaves a torn .wet behind.
		if err := wetio.SaveFileCtx(ctx, outFile, wet); err != nil {
			fmt.Fprintln(stderr, "wetrun:", err)
			return cliutil.ExitCode(err)
		}
		fmt.Fprintf(stdout, "saved WET to %s\n", outFile)
	}
	fmt.Fprintf(stdout, "benchmark    %s (%s)\n", w.Name, w.Mimics)
	fmt.Fprintf(stdout, "statements   %d dynamic (scale %d)\n", run.Stmts, run.Scale)
	fmt.Fprintf(stdout, "paths        %d executions of %d distinct Ball-Larus paths\n", wet.Raw.PathExecs, len(wet.Nodes))
	fmt.Fprintf(stdout, "blocks       %d executions\n", wet.Raw.BlockExecs)
	fmt.Fprintf(stdout, "dependences  %d data, %d control\n", wet.Raw.DynDD, wet.Raw.DynCD)
	if wet.Segmented() {
		fmt.Fprintf(stdout, "epochs       %d sealed at %d timestamps each\n", wet.Epochs, wet.EpochTS)
	}
	if c := wet.Conc; c != nil {
		fmt.Fprintf(stdout, "concurrency  %d threads, %d sync events, %d shared accesses\n",
			c.NumThreads(), c.SyncEvents(), c.SharedAccesses())
	}
	fmt.Fprintf(stdout, "edges        %d static dependence edges\n", len(wet.Edges))
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, rep.String())
	if fid := wet.Fidelity; fid.Degraded() {
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, fid.String())
	}
	if census {
		fmt.Fprintln(stdout)
		names := make([]string, 0, len(rep.Methods))
		for name := range rep.Methods {
			names = append(names, name)
		}
		sort.Slice(names, func(i, j int) bool {
			if rep.Methods[names[i]] != rep.Methods[names[j]] {
				return rep.Methods[names[i]] > rep.Methods[names[j]]
			}
			return names[i] < names[j]
		})
		for _, name := range names {
			fmt.Fprintf(stdout, "  %-10s %d streams\n", name, rep.Methods[name])
		}
	}
	return cliutil.ExitOK
}

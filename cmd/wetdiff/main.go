// Command wetdiff compares two saved WETs of the same program — typically
// two runs on different inputs — and reports where the dynamic behaviour
// diverged: execution-count deltas per statement, value diversity changes,
// and the Ball–Larus paths exercised by only one run. This is the profile
// mining the paper motivates ("identify program characteristics"), done on
// the unified representation. Inputs may mix formats freely: single-epoch
// v2/v3 files and epoch-segmented v4 files diff against each other — the
// queries see one timeline either way.
//
// Exit codes: 0 ok, 1 error, 2 usage, 3 integrity failure, 4 loaded with
// data loss under -salvage.
//
// Usage:
//
//	wetprof -input 1,2,3 -o a.wet prog.wir
//	wetprof -input 9,9,9 -o b.wet prog.wir
//	wetdiff a.wet b.wet
//	wetdiff -salvage damaged.wet b.wet
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"wet/internal/cliutil"
	"wet/internal/core"
	"wet/internal/query"
	"wet/internal/wetio"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command with its arguments and output streams; it returns the
// exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wetdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	top := fs.Int("top", 15, "number of diverging statements to list")
	salvage := fs.Bool("salvage", false, "recover what damaged inputs still hold")
	timeout := fs.Duration("timeout", 0, "abort after this duration (exit code 5); 0 = no limit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return cliutil.ExitOK
		}
		return cliutil.ExitUsage
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: wetdiff [-salvage] a.wet b.wet")
		return cliutil.ExitUsage
	}
	// ^C or -timeout expiry cancels whichever load is in flight; a cancelled
	// run exits with code 5, not an integrity code.
	ctx, stop := cliutil.Context(*timeout)
	defer stop()
	opts := wetio.LoadOptions{Ctx: ctx, Salvage: *salvage}
	// Nest the two loads so either file's integrity failure surfaces with
	// its own exit code, and a lossy salvage of either raises 0 to 4.
	return cliutil.LoadWET(stderr, "wetdiff", fs.Arg(0), opts, func(a *core.WET) int {
		return cliutil.LoadWET(stderr, "wetdiff", fs.Arg(1), opts, func(b *core.WET) int {
			return diff(stdout, stderr, a, b, *top)
		})
	})
}

func diff(stdout, stderr io.Writer, a, b *core.WET, top int) int {
	d, err := query.DiffWETs(a, b)
	if err != nil {
		fmt.Fprintln(stderr, "wetdiff:", err)
		return cliutil.ExitError
	}

	fmt.Fprintf(stdout, "run A: %d statements, %d path execs%s   run B: %d statements, %d path execs%s\n",
		a.Raw.StmtExecs, a.Raw.PathExecs, epochInfo(a), b.Raw.StmtExecs, b.Raw.PathExecs, epochInfo(b))
	fmt.Fprintf(stdout, "paths: %d shared, %d only in A, %d only in B\n\n",
		d.SharedPaths, d.PathsOnlyA, d.PathsOnlyB)

	if len(d.Stmts) == 0 {
		fmt.Fprintln(stdout, "no per-statement behaviour differences")
		return cliutil.ExitOK
	}
	fmt.Fprintf(stdout, "diverging statements (%d total, top %d by execution delta):\n", len(d.Stmts), top)
	fmt.Fprintf(stdout, "%-34s %10s %10s %9s %9s\n", "statement", "execs A", "execs B", "uniq A", "uniq B")
	for i, sd := range d.Stmts {
		if i >= top {
			break
		}
		fmt.Fprintf(stdout, "%-34s %10d %10d %9d %9d\n",
			a.Prog.Stmts[sd.StmtID], sd.ExecsA, sd.ExecsB, sd.UniqueA, sd.UniqueB)
	}
	return cliutil.ExitOK
}

// epochInfo annotates a run header when the file was epoch-segmented.
func epochInfo(w *core.WET) string {
	if !w.Segmented() {
		return ""
	}
	return fmt.Sprintf(" (%d epochs)", w.Epochs)
}

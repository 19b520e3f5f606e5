// Command wetprof profiles a textual IR program (.wir file): it executes
// the program under the simulator, constructs and compresses its Whole
// Execution Trace, prints the size report, and can save the WET for later
// querying with wetquery -load.
//
// Usage:
//
//	wetprof prog.wir
//	wetprof -input 3,1,4,1,5 -o prog.wet prog.wir
//	wetprof -show-outputs prog.wir
//	wetprof -epoch 4096 -o prog.wet prog.wir   # streaming, epoch-segmented v4
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"wet/internal/asm"
	"wet/internal/cliutil"
	"wet/internal/core"
	"wet/internal/interp"
	"wet/internal/wetio"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command with its arguments and output streams; it returns the
// exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wetprof", flag.ContinueOnError)
	fs.SetOutput(stderr)
	inputs := fs.String("input", "", "comma separated input tape values")
	outFile := fs.String("o", "", "save the frozen WET to this file")
	showOut := fs.Bool("show-outputs", false, "print the program's output values")
	maxSteps := fs.Uint64("max-steps", 1<<28, "dynamic statement budget")
	epoch := cliutil.Uint32(fs, "epoch", 0, "epoch size in timestamps: seal and tier-2 compress the profile per epoch while the program runs (0 = single-epoch; saves format v4)")
	timeout := fs.Duration("timeout", 0, "abort the run after this duration (exit code 5); 0 = no limit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return cliutil.ExitOK
		}
		return cliutil.ExitUsage
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: wetprof [flags] program.wir")
		return cliutil.ExitUsage
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "wetprof:", err)
		return cliutil.ExitCode(err)
	}

	// ^C or -timeout expiry stops the interpreter within 4096 steps and an
	// interrupted -o save leaves no torn file behind.
	ctx, stop := cliutil.Context(*timeout)
	defer stop()

	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	prog, err := asm.Parse(string(src))
	if err != nil {
		return fail(err)
	}
	var tape []int64
	if *inputs != "" {
		for _, tok := range strings.Split(*inputs, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(tok), 0, 64)
			if err != nil {
				return fail(fmt.Errorf("bad -input value %q", tok))
			}
			tape = append(tape, v)
		}
	}

	st, err := interp.Analyze(prog)
	if err != nil {
		return fail(err)
	}
	opts := interp.Options{Ctx: ctx, Inputs: tape, MaxSteps: *maxSteps, CollectOutput: *showOut}
	// Collecting outputs requires a direct run first (the builders override
	// the sink but not output collection — it flows through Result).
	// BuildStreaming with epoch 0 is exactly Build + Freeze.
	w, rep, res, err := core.BuildStreaming(st, opts, core.FreezeOptions{EpochTS: *epoch})
	if err != nil {
		return fail(err)
	}

	fmt.Fprintf(stdout, "program      %s (%d funcs, %d statements)\n", fs.Arg(0), len(prog.Funcs), len(prog.Stmts))
	fmt.Fprintf(stdout, "executed     %d dynamic statements, %d path executions\n", res.Steps, w.Raw.PathExecs)
	fmt.Fprintf(stdout, "WET          %d nodes, %d dependence edges\n", len(w.Nodes), len(w.Edges))
	if w.Segmented() {
		fmt.Fprintf(stdout, "epochs       %d sealed at %d timestamps each\n", w.Epochs, w.EpochTS)
	}
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, rep.String())
	if *showOut {
		fmt.Fprintf(stdout, "\noutputs: %v\n", res.Outputs)
	}
	if *outFile != "" {
		// Atomic save: temp file + fsync + rename, so a failed or
		// interrupted save never leaves a torn .wet behind.
		if err := wetio.SaveFileCtx(ctx, *outFile, w); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "\nsaved WET to %s\n", *outFile)
	}
	return cliutil.ExitOK
}

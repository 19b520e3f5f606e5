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
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"wet/internal/asm"
	"wet/internal/cliutil"
	"wet/internal/core"
	"wet/internal/interp"
	"wet/internal/wetio"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, "wetprof:", err)
	os.Exit(cliutil.ExitCode(err))
}

func main() {
	inputs := flag.String("input", "", "comma separated input tape values")
	outFile := flag.String("o", "", "save the frozen WET to this file")
	showOut := flag.Bool("show-outputs", false, "print the program's output values")
	maxSteps := flag.Uint64("max-steps", 1<<28, "dynamic statement budget")
	epoch := cliutil.Uint32(flag.CommandLine, "epoch", 0, "epoch size in timestamps: seal and tier-2 compress the profile per epoch while the program runs (0 = single-epoch; saves format v4)")
	timeout := flag.Duration("timeout", 0, "abort the run after this duration (exit code 5); 0 = no limit")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: wetprof [flags] program.wir")
		os.Exit(2)
	}

	// ^C or -timeout expiry stops the interpreter within 4096 steps and an
	// interrupted -o save leaves no torn file behind.
	ctx, stop := cliutil.Context(*timeout)
	defer stop()

	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fail(err)
	}
	prog, err := asm.Parse(string(src))
	if err != nil {
		fail(err)
	}
	var tape []int64
	if *inputs != "" {
		for _, tok := range strings.Split(*inputs, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(tok), 0, 64)
			if err != nil {
				fail(fmt.Errorf("bad -input value %q", tok))
			}
			tape = append(tape, v)
		}
	}

	st, err := interp.Analyze(prog)
	if err != nil {
		fail(err)
	}
	opts := interp.Options{Ctx: ctx, Inputs: tape, MaxSteps: *maxSteps, CollectOutput: *showOut}
	// Collecting outputs requires a direct run first (the builders override
	// the sink but not output collection — it flows through Result).
	// BuildStreaming with epoch 0 is exactly Build + Freeze.
	w, rep, res, err := core.BuildStreaming(st, opts, core.FreezeOptions{EpochTS: *epoch})
	if err != nil {
		fail(err)
	}

	fmt.Printf("program      %s (%d funcs, %d statements)\n", flag.Arg(0), len(prog.Funcs), len(prog.Stmts))
	fmt.Printf("executed     %d dynamic statements, %d path executions\n", res.Steps, w.Raw.PathExecs)
	fmt.Printf("WET          %d nodes, %d dependence edges\n", len(w.Nodes), len(w.Edges))
	if w.Segmented() {
		fmt.Printf("epochs       %d sealed at %d timestamps each\n", w.Epochs, w.EpochTS)
	}
	fmt.Println()
	fmt.Print(rep.String())
	if *showOut {
		fmt.Printf("\noutputs: %v\n", res.Outputs)
	}
	if *outFile != "" {
		// Atomic save: temp file + fsync + rename, so a failed or
		// interrupted save never leaves a torn .wet behind.
		if err := wetio.SaveFileCtx(ctx, *outFile, w); err != nil {
			fail(err)
		}
		fmt.Printf("\nsaved WET to %s\n", *outFile)
	}
}

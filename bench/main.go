// Command journeys is the repository's benchmark: one repeatable run per
// workload over the three journeys a user of WET takes (record a program,
// replay a saved trace, ask a served corpus), with the per-layer numbers
// measured from outside by timing calls into each layer's exported
// functions. See README.md in this directory.
//
//	bash bench/run.sh --workload record --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload record --seed 1 --seconds 20 --trace 1
//	bash bench/run.sh -list
//	bash bench/run.sh -selfcheck -sets 2 -runs 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	c := defaultConfig()
	flag.StringVar(&c.workload, "workload", "", "workload to run: record, replay, slice or serve")
	flag.Uint64Var(&c.seed, "seed", 1, "seed of the workload's inputs: query offsets, criteria, request schedule")
	flag.Float64Var(&c.seconds, "seconds", c.seconds, "how long the op loop measures")
	traceOn := flag.Int("trace", 0, "1 = traced run: record spans and report the per-layer metrics")
	flag.StringVar(&c.traceFile, "trace-file", "", "where a traced run writes its spans (default out/trace-<workload>.json)")
	list := flag.Bool("list", false, "print every metric with its unit and bound, then exit")
	selfcheck := flag.Bool("selfcheck", false, "alternate A/B runs of this binary and compare their medians")
	sets := flag.Int("sets", 2, "selfcheck: sides to compare")
	runs := flag.Int("runs", 5, "selfcheck: runs per side and workload")
	flag.Parse()
	c.trace = *traceOn != 0

	switch {
	case *list:
		printList()
		return
	case *selfcheck:
		os.Exit(selfCheck(c, *sets, *runs))
	}
	if newJourney(c.workload) == nil {
		fmt.Fprintf(os.Stderr, "journeys: unknown workload %q (have record, replay, slice, serve)\n", c.workload)
		os.Exit(2)
	}
	if c.traceFile == "" {
		c.traceFile = filepath.Join("out", "trace-"+c.workload+".json")
	}
	res, err := run(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "journeys:", err)
		os.Exit(1)
	}
	report(c, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "journeys:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// report prints the run for a reader; the machine-readable result line
// follows it.
func report(c config, res *result) {
	fmt.Printf("workload=%s seed=%d seconds=%g traced=%v\n", c.workload, c.seed, c.seconds, c.trace)
	for _, s := range res.info {
		fmt.Println(s)
	}
	specs := endToEnd
	if c.trace {
		specs = perLayer
	}
	for _, s := range specs {
		fmt.Printf("  %-34s %16.6g %s\n", s.Name, res.Metrics[s.Name].Value, s.Unit)
	}
	verdict := "correct"
	if !res.Correct {
		verdict = fmt.Sprintf("INCORRECT (first failure: %v)", res.firstErr)
	}
	fmt.Printf("ops attempted=%d failed=%d: %s\n", res.Attempted, res.Failed, verdict)
}

func printList() {
	fmt.Println("workloads:")
	for _, w := range workloadSpecs {
		fmt.Printf("  %-8s %s\n", w.Name, w.Why)
	}
	fmt.Println("end-to-end metrics (untraced run):")
	for _, s := range endToEnd {
		fmt.Printf("  %-34s %-6s better=%-6s bound=%.2f  %s\n", s.Name, s.Unit, s.Better, s.Bound, s.Doc)
	}
	fmt.Println("per-layer metrics (traced run, no bound):")
	for _, s := range perLayer {
		exact := ""
		if s.Exact {
			exact = "  repeats exactly"
		}
		fmt.Printf("  %-34s %-6s better=%-6s%s\n", s.Name, s.Unit, s.Better, exact)
	}
}

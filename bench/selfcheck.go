package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// selfCheck is the A/A test: it alternates runs of this same binary between
// sides, each side using the same seeds, and fails if two sides' medians
// disagree by more than a metric's bound or a count differs at all. It also
// prints each side's spread (quartile distance / median), which has to stay
// below the bound for the benchmark to resolve a change of that size.
//
// Do not normalise the metrics by a calibration kernel: sizing runs drifted
// by up to 17% over minutes under memory-side neighbour load while a
// compute-bound loop moved 4%. The host diagnostics printed per run (steal
// ticks, GC count) are there to explain an outlier, not to correct it.
func selfCheck(c config, sets, runs int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "selfcheck:", err)
		return 1
	}
	specs := endToEnd
	if c.trace {
		specs = perLayer
	}
	names := []string{c.workload}
	if c.workload == "" {
		names = names[:0]
		for _, w := range workloadSpecs {
			names = append(names, w.Name)
		}
	}
	bad := 0
	for _, name := range names {
		// values[side][metric] = one value per run
		values := make([]map[string][]float64, sets)
		for s := range values {
			values[s] = map[string][]float64{}
		}
		for i := 0; i < runs; i++ {
			for k := 0; k < sets; k++ {
				s := (k + i) % sets // alternate which side goes first
				seed := c.seed + uint64(i)
				steal0 := stealTicks()
				res, gc, err := runChild(exe, name, seed, c)
				if err != nil {
					fmt.Fprintf(os.Stderr, "selfcheck: %s side %c seed %d: %v\n", name, 'A'+s, seed, err)
					return 1
				}
				fmt.Printf("%s side=%c seed=%d attempted=%d failed=%d steal_ticks=%d gc=%s",
					name, 'A'+s, seed, res.Attempted, res.Failed, stealTicks()-steal0, gc)
				if !c.trace {
					for _, sp := range specs {
						fmt.Printf(" %s=%.5g", sp.Name, res.Metrics[sp.Name].Value)
					}
				}
				fmt.Println()
				if !res.Correct {
					bad++
				}
				for _, sp := range specs {
					values[s][sp.Name] = append(values[s][sp.Name], res.Metrics[sp.Name].Value)
				}
			}
		}
		for _, sp := range specs {
			fmt.Printf("%-8s %-34s", name, sp.Name)
			for s := 0; s < sets; s++ {
				q1, q2, q3 := quartiles(values[s][sp.Name])
				fmt.Printf("  %c: %.6g [%.6g, %.6g] spread %.2f%%", 'A'+s, q2, q1, q3, 100*(q3-q1)/math.Abs(q2))
			}
			verdict := "ok"
			for s := 1; s < sets; s++ {
				a, b := values[0][sp.Name], values[s][sp.Name]
				if sp.Exact {
					for i := range a {
						if a[i] != b[i] {
							verdict = fmt.Sprintf("FAIL: count differs on seed %d: %v vs %v", c.seed+uint64(i), a[i], b[i])
						}
					}
				}
				_, ma, _ := quartiles(a)
				_, mb, _ := quartiles(b)
				if d := math.Abs(ma-mb) / math.Abs(ma); sp.Bound > 0 && d > sp.Bound {
					verdict = fmt.Sprintf("FAIL: medians differ by %.1f%% > bound %.0f%%", 100*d, 100*sp.Bound)
				}
			}
			if verdict != "ok" {
				bad++
			}
			fmt.Println("  " + verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("selfcheck: %d failures\n", bad)
		return 1
	}
	fmt.Println("selfcheck: ok")
	return 0
}

var gcField = regexp.MustCompile(`\bgc=(\d+)`)

// runChild runs one workload run in a fresh process and parses its result
// line.
func runChild(exe, workload string, seed uint64, c config) (*result, string, error) {
	trace := "0"
	if c.trace {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64), "-trace", trace)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, "", fmt.Errorf("%w: %s", err, strings.TrimSpace(stderr.String()))
	}
	text := strings.TrimSpace(string(stdout))
	last := text[strings.LastIndexByte(text, '\n')+1:]
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, "", fmt.Errorf("result line: %w", err)
	}
	gc := "?"
	if m := gcField.FindStringSubmatch(text); m != nil {
		gc = m[1]
	}
	return &res, gc, nil
}

// stealTicks reads the host's cumulative steal time from /proc/stat (0
// where there is none): time a neighbour took from this VM.
func stealTicks() uint64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0
	}
	// cpu user nice system idle iowait irq softirq steal ...
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 {
		return 0
	}
	n, _ := strconv.ParseUint(fields[8], 10, 64)
	return n
}

// quartiles matches Python's statistics.quantiles(v, n=4), which the
// benchmark's driver uses for its spreads.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based, exclusive method
		j := int(math.Floor(pos))
		frac := pos - float64(j)
		j = min(max(j, 1), n-1)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

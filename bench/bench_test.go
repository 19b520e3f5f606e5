package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the repo root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestContract pins spec.go to BENCHMARK.json: same workloads, same metric
// names, units, directions and bounds, in the same order.
func TestContract(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloadSpecs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, spec.go %d", len(b.Workloads), len(workloadSpecs))
	}
	for i, w := range workloadSpecs {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, spec.go %+v", i, b.Workloads[i], w)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, spec.go %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, s := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != s.Name || got.Unit != s.Unit || got.Better != s.Better || got.Bound != s.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, spec.go %+v", i, got, s)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, spec.go %d", len(b.PerLayer), len(perLayer))
	}
	for i, s := range perLayer {
		got := b.PerLayer[i]
		if got.Name != s.Name || got.Unit != s.Unit || got.Better != s.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, spec.go %+v", i, got, s)
		}
	}
	seen := map[string]bool{}
	for _, s := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(s.Name) || seen[s.Name] {
			t.Errorf("metric name %q is malformed or used twice", s.Name)
		}
		seen[s.Name] = true
	}
}

// TestSmoke runs every workload at a fraction of its size, untraced and
// traced, and checks that no op fails and that each run emits exactly the
// metrics of its kind.
func TestSmoke(t *testing.T) {
	for _, w := range workloadSpecs {
		t.Run(w.Name, func(t *testing.T) {
			c := defaultConfig()
			c.workload, c.seed, c.small = w.Name, 1, true
			c.seconds, c.minPrimary, c.cycleOps, c.setups, c.warmups, c.probeReps = 0.1, 1, 1, 1, 1, 1
			for _, traced := range []bool{false, true} {
				c.trace = traced
				c.traceFile = filepath.Join(t.TempDir(), "trace.json")
				res, err := run(c)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
					t.Errorf("traced=%v: attempted %d, failed %d (%v)", traced, res.Attempted, res.Failed, res.firstErr)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics emitted, want %d", traced, len(res.Metrics), len(want))
				}
				for _, s := range want {
					if m, ok := res.Metrics[s.Name]; !ok || m.Unit != s.Unit {
						t.Errorf("traced=%v: metric %s missing or with unit %q", traced, s.Name, m.Unit)
					}
				}
				if _, err := json.Marshal(res); err != nil {
					t.Errorf("traced=%v: result does not encode: %v", traced, err)
				}
				if traced {
					if _, err := os.Stat(c.traceFile); err != nil {
						t.Errorf("trace file: %v", err)
					}
				}
			}
		})
	}
}

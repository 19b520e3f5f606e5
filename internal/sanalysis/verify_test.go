package sanalysis_test

import (
	"testing"

	"wet/internal/core"
	"wet/internal/interp"
	. "wet/internal/sanalysis"
	"wet/internal/workload"
)

// buildWET runs one workload and freezes its trace.
func buildWET(t *testing.T, name string, scale int) *core.WET {
	t.Helper()
	wl, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, in := wl.Build(scale)
	st, err := interp.Analyze(p)
	if err != nil {
		t.Fatalf("%s: Analyze: %v", name, err)
	}
	w, _, err := core.Build(st, interp.Options{Inputs: in, MaxSteps: 1 << 26})
	if err != nil {
		t.Fatalf("%s: Build: %v", name, err)
	}
	if _, err := w.FreezeErr(core.FreezeOptions{}); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestVerifyWorkloadsClean certifies every workload WET at both tiers: the
// dynamic trace of a real run must be semantically consistent with the
// static analysis of its program.
func TestVerifyWorkloadsClean(t *testing.T) {
	for _, wl := range workload.All() {
		w := buildWET(t, wl.Name, 1)
		for _, tier := range []core.Tier{core.Tier1, core.Tier2} {
			rep, err := VerifyWET(w, VerifyOptions{Tier: tier})
			if err != nil {
				t.Fatalf("%s tier %v: VerifyWET: %v", wl.Name, tier, err)
			}
			if !rep.OK() {
				for _, f := range rep.Findings {
					t.Errorf("%s tier %v: %s", wl.Name, tier, f)
				}
				t.Fatalf("%s tier %v: %d semantic findings on a clean trace", wl.Name, tier, len(rep.Findings))
			}
			if rep.Transitions == 0 || rep.Edges == 0 {
				t.Fatalf("%s tier %v: empty verification (transitions=%d edges=%d)", wl.Name, tier, rep.Transitions, rep.Edges)
			}
		}
	}
}

// TestVerifySkipsConcurrent pins the concurrency gate: the sequential
// replay rules do not describe interleaved control flow, so a concurrent
// trace is skipped with a reason instead of drowning in false findings.
func TestVerifySkipsConcurrent(t *testing.T) {
	wl, err := workload.ConcByName("li-conc-clean")
	if err != nil {
		t.Fatal(err)
	}
	p, in := wl.Build(1)
	st, err := interp.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	w, _, err := core.Build(st, interp.Options{Inputs: in})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.FreezeErr(core.FreezeOptions{}); err != nil {
		t.Fatal(err)
	}
	rep, err := VerifyWET(w, VerifyOptions{Tier: core.Tier2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped == "" || !rep.OK() || len(rep.Findings) != 0 {
		t.Fatalf("concurrent trace not gated: %+v", rep)
	}
	if err := Certify(w); err != nil {
		t.Fatalf("Certify on a concurrent trace must pass via the gate: %v", err)
	}
}

package workload

import (
	"context"
	"fmt"
	"testing"

	"wet/internal/core"
	"wet/internal/interp"
	"wet/internal/query"
	"wet/internal/trace"
)

func TestAllWorkloadsRun(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			p, in := w.Build(1)
			st, err := interp.Analyze(p)
			if err != nil {
				t.Fatalf("Analyze: %v", err)
			}
			res, err := interp.Run(st, interp.Options{Inputs: in, CollectOutput: true, MaxSteps: 1 << 24})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.Steps < 10000 {
				t.Fatalf("only %d dynamic statements at scale 1 — too small to be meaningful", res.Steps)
			}
			if len(res.Outputs) == 0 {
				t.Fatal("no outputs")
			}
			t.Logf("%s: %d stmts, outputs %v", w.Name, res.Steps, res.Outputs)
		})
	}
}

func TestWorkloadsDeterministic(t *testing.T) {
	for _, w := range All() {
		p1, in1 := w.Build(1)
		p2, in2 := w.Build(1)
		st1, err := interp.Analyze(p1)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		st2, err := interp.Analyze(p2)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		r1, err := interp.Run(st1, interp.Options{Inputs: in1, CollectOutput: true})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		r2, err := interp.Run(st2, interp.Options{Inputs: in2, CollectOutput: true})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if r1.Steps != r2.Steps || len(r1.Outputs) != len(r2.Outputs) {
			t.Fatalf("%s: nondeterministic (%d vs %d steps)", w.Name, r1.Steps, r2.Steps)
		}
		for i := range r1.Outputs {
			if r1.Outputs[i] != r2.Outputs[i] {
				t.Fatalf("%s: output %d differs", w.Name, i)
			}
		}
	}
}

func TestScaleRoughlyLinear(t *testing.T) {
	for _, w := range All() {
		s1, err := Steps(w, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		s3, err := Steps(w, 3)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if s3 < 2*s1 {
			t.Fatalf("%s: scale 3 ran %d steps vs %d at scale 1 — not scaling", w.Name, s3, s1)
		}
	}
}

func TestScaleFor(t *testing.T) {
	w, err := ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	s, err := ScaleFor(w, 200000)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Steps(w, s)
	if err != nil {
		t.Fatal(err)
	}
	if got < 200000 {
		t.Fatalf("ScaleFor(200k) = %d, but only %d steps", s, got)
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName accepted unknown name")
	}
}

// TestWETBuildsOnAllWorkloads is the key integration gate: the full WET
// pipeline (grouping determinism included) must hold on every benchmark.
func TestWETBuildsOnAllWorkloads(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			p, in := w.Build(1)
			st, err := interp.Analyze(p)
			if err != nil {
				t.Fatalf("Analyze: %v", err)
			}
			b := core.NewBuilder(st, core.FreezeOptions{})
			b.CheckDeterminism = true
			wet, _, err := buildChecked(st, b, in)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			rep, err := wet.FreezeErr(core.FreezeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if rep.T2Total() >= rep.OrigTotal() {
				t.Fatalf("no compression: tier2 %d >= orig %d", rep.T2Total(), rep.OrigTotal())
			}
			ratio := core.Ratio(rep.OrigTotal(), rep.T2Total())
			t.Logf("%s: %d nodes, %d edges, orig %.1f KB -> t1 %.1f KB -> t2 %.1f KB (%.1fx)",
				w.Name, len(wet.Nodes), len(wet.Edges),
				float64(rep.OrigTotal())/1024, float64(rep.T1Total())/1024, float64(rep.T2Total())/1024, ratio)
			if ratio < 2 {
				t.Fatalf("%s: overall compression ratio %.2f is implausibly low", w.Name, ratio)
			}
		})
	}
}

func buildChecked(st *interp.Static, b *core.Builder, in []int64) (*core.WET, *interp.Result, error) {
	// Equivalent of core.Build but with the determinism check enabled.
	cnt := traceCounting(b)
	res, err := interp.Run(st, interp.Options{Inputs: in, Sink: cnt})
	if err != nil {
		return nil, nil, err
	}
	w, err := b.Finish()
	if err != nil {
		return nil, nil, err
	}
	if w.Raw != cnt.RawStats {
		return nil, nil, fmt.Errorf("builder's raw counts %+v, Counting's %+v", w.Raw, cnt.RawStats)
	}
	return w, res, nil
}

func traceCounting(next trace.Sink) *trace.Counting { return trace.NewCounting(next) }

// TestSoakLargeRun builds a ~2M statement WET and cross-checks queries —
// a scaled-down version of the paper's long-run scenario.
func TestSoakLargeRun(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	w, err := ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	scale, err := ScaleFor(w, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	p, in := w.Build(scale)
	st, err := interp.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	wet, res, err := core.Build(st, interp.Options{Inputs: in})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := wet.FreezeErr(core.FreezeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps < 2_000_000 {
		t.Fatalf("soak ran only %d statements", res.Steps)
	}
	if err := wet.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	ratio := core.Ratio(rep.OrigTotal(), rep.T2Total())
	if ratio < 10 {
		t.Fatalf("soak compression ratio %.1f", ratio)
	}
	// The full control flow trace reconstructs at both tiers.
	n1, err1 := query.ExtractCFCtx(context.Background(), wet, core.Tier1, true, -1, nil)
	n2, err2 := query.ExtractCFCtx(context.Background(), wet, core.Tier2, true, -1, nil)
	if n1 != res.Steps || n2 != res.Steps || err1 != nil || err2 != nil {
		t.Fatalf("CF trace %d/%d stmts (%v, %v), ran %d", n1, n2, err1, err2, res.Steps)
	}
	t.Logf("soak: %d stmts, ratio %.1fx, %d nodes, %d edges",
		res.Steps, ratio, len(wet.Nodes), len(wet.Edges))
}

// TestStatementsPerPath documents the fidelity metric discussed in
// EXPERIMENTS.md: dynamic statements per Ball-Larus path execution should
// sit in a realistic band (Trimaran SpecInt averages ~38; single digits
// would mean toy blocks).
func TestStatementsPerPath(t *testing.T) {
	for _, w := range All() {
		p, in := w.Build(1)
		st, err := interp.Analyze(p)
		if err != nil {
			t.Fatal(err)
		}
		wet, res, err := core.Build(st, interp.Options{Inputs: in})
		if err != nil {
			t.Fatal(err)
		}
		spp := float64(res.Steps) / float64(wet.Raw.PathExecs)
		if spp < 6 {
			t.Fatalf("%s: %.1f statements per path execution — blocks too small", w.Name, spp)
		}
		t.Logf("%s: %.1f statements per path execution", w.Name, spp)
	}
}

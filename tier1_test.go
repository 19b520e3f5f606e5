package wet_test

import (
	"bytes"
	"errors"
	"testing"

	"wet"
	"wet/internal/workload"
)

// tier1Queries returns every error-returning Trace query asked at Tier1 of
// tr, by name, each from instances and statements tr executed.
func tier1Queries(t *testing.T, tr *wet.Trace) map[string]func() error {
	t.Helper()
	wk := tr.Walker()
	mid := tr.Time() / 2
	if err := wk.StartAt(mid); err != nil {
		t.Fatal(err)
	}
	w := tr.WET()
	at := wet.Instance{Node: wk.Node, Pos: len(w.Nodes[wk.Node].Stmts) - 1, Ord: wk.Ord}
	first := wet.Instance{Node: wk.Node, Pos: 0, Ord: wk.Ord}
	stmt := w.Nodes[wk.Node].Stmts[0].ID
	valueStmt, memStmt := -1, -1
	for id, occ := range w.StmtOcc {
		if len(occ) == 0 {
			continue
		}
		st := w.Prog.Stmts[id]
		if valueStmt < 0 && hasValue(st) {
			valueStmt = id
		}
		if memStmt < 0 && isMemory(st) {
			memStmt = id
		}
	}
	t1 := tr.AtTier(wet.Tier1)
	return map[string]func() error{
		"ExtractCFRange": func() error { _, err := t1.ExtractCFRange(1, tr.Time(), nil); return err },
		"ValueTrace":     func() error { _, err := t1.ValueTrace(valueStmt, nil); return err },
		"AddressTrace":   func() error { _, err := t1.AddressTrace(memStmt, nil); return err },
		"InstanceOfTS":   func() error { _, err := t1.InstanceOfTS(stmt, mid); return err },
		"Backward":       func() error { _, err := t1.Backward(at, 0); return err },
		"Forward":        func() error { _, err := t1.Forward(first, 0); return err },
		"Chop":           func() error { _, err := t1.Chop(first, at, 0); return err },
		"DependenceChain": func() error {
			_, err := t1.DependenceChain(at, -1, 8)
			return err
		},
		"ValueInvariance": func() error { _, err := t1.ValueInvariance(0); return err },
		"StrideProfiles":  func() error { _, err := t1.StrideProfiles(0); return err },
		"Races":           func() error { _, err := t1.Races(); return err },
	}
}

// TestTier1RefusedTyped: tier 1 is what a single-epoch build keeps. At Tier1
// of a streamed build or an opened file, every error-returning query returns
// a *CapabilityError naming CapTier1, and ExtractControlFlow, which returns
// no error, panics with that typed value; at Tier1 of a single-epoch build
// the same queries answer.
func TestTier1RefusedTyped(t *testing.T) {
	wl, err := workload.ConcByName("li-conc-racy")
	if err != nil {
		t.Fatal(err)
	}
	prog, in := wl.Build(1)
	run := func(opts ...wet.RunOption) *wet.Trace {
		tr, _, err := wet.Run(prog, append(opts, wet.WithInputs(in...), wet.WithSeed(11))...)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	single := run()
	open := func(opts ...wet.OpenOption) *wet.Trace {
		tr, _, err := wet.Open(bytes.NewReader(saveBytes(t, single)), opts...)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	for name, tr := range map[string]*wet.Trace{
		"streamed": run(wet.WithEpochTS(1 << 10)),
		"opened":   open(),
		"lazy":     open(wet.WithLazy()),
	} {
		for q, ask := range tier1Queries(t, tr) {
			var ce *wet.CapabilityError
			if err := ask(); !errors.As(err, &ce) || ce.Capability != wet.CapTier1 {
				t.Errorf("%s: %s at tier 1 returned %v, want a *CapabilityError naming %s", name, q, err, wet.CapTier1)
			}
		}
		func() {
			defer func() {
				if ce, ok := recover().(*wet.CapabilityError); !ok || ce.Capability != wet.CapTier1 {
					t.Errorf("%s: ExtractControlFlow at tier 1 did not panic with a *CapabilityError naming %s", name, wet.CapTier1)
				}
			}()
			tr.AtTier(wet.Tier1).ExtractControlFlow(true, nil)
		}()
	}
	for q, ask := range tier1Queries(t, single) {
		if err := ask(); err != nil {
			t.Errorf("single-epoch build: %s at tier 1 returned %v", q, err)
		}
	}
}

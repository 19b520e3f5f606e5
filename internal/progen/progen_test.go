package progen

import (
	"math/rand"
	"testing"

	"wet/internal/core"
	"wet/internal/interp"
	"wet/internal/ir"
	"wet/internal/query"
	"wet/internal/trace"
)

type tee struct{ sinks []trace.Sink }

func (t *tee) Stmt(inst trace.Inst, st *ir.Stmt, value int64, ddSrcs []trace.Inst, ddVals []int64, cdSrc trace.Inst) {
	for _, s := range t.sinks {
		s.Stmt(inst, st, value, ddSrcs, ddVals, cdSrc)
	}
}

func (t *tee) PathDone(fn int, pathID int64) {
	for _, s := range t.sinks {
		s.PathDone(fn, pathID)
	}
}

// TestPipelineDifferential generates random programs and checks that the
// fully compressed WET reproduces exactly what the simulator recorded:
// the statement-level control flow trace (both tiers, both directions),
// every produced value, and dependence resolution used by slicing.
func TestPipelineDifferential(t *testing.T) {
	const programs = 30
	for seed := int64(0); seed < programs; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p, in, err := Gen(rng, DefaultOpts())
		if err != nil {
			t.Fatalf("seed %d: Gen: %v", seed, err)
		}
		st, err := interp.Analyze(p)
		if err != nil {
			t.Fatalf("seed %d: Analyze: %v", seed, err)
		}
		// Calls nested inside loops can legitimately multiply into runs too
		// large to record; skip those seeds (deterministically).
		if _, err := interp.Run(st, interp.Options{Inputs: in, MaxSteps: 200_000}); err != nil {
			continue
		}
		b := core.NewBuilder(st, core.FreezeOptions{})
		b.CheckDeterminism = true
		rec := &trace.Recording{}
		cnt := trace.NewCounting(&tee{sinks: []trace.Sink{rec, b}})
		if _, err := interp.Run(st, interp.Options{Inputs: in, Sink: cnt, MaxSteps: 1 << 22}); err != nil {
			t.Fatalf("seed %d: Run: %v", seed, err)
		}
		w, err := b.Finish()
		if err != nil {
			t.Fatalf("seed %d: Finish: %v", seed, err)
		}
		if w.Raw != cnt.RawStats {
			t.Fatalf("seed %d: builder's raw counts %+v, Counting's %+v", seed, w.Raw, cnt.RawStats)
		}
		if _, err := w.FreezeErr(core.FreezeOptions{}); err != nil {
			t.Fatal(err)
		}

		checkCF(t, seed, w, rec)
		checkValues(t, seed, w, rec)
		checkSliceSources(t, seed, w, rec)
	}
}

func checkCF(t *testing.T, seed int64, w *core.WET, rec *trace.Recording) {
	t.Helper()
	want := make([]int, len(rec.Events))
	for i, e := range rec.Events {
		want[i] = e.Stmt.ID
	}
	for _, tier := range []core.Tier{core.Tier1, core.Tier2} {
		var got []int
		query.ExtractCF(w, tier, true, func(id int) { got = append(got, id) })
		if len(got) != len(want) {
			t.Fatalf("seed %d %s: CF trace %d stmts, want %d", seed, tier, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d %s: CF stmt %d = %d, want %d", seed, tier, i, got[i], want[i])
			}
		}
		var rev []int
		query.ExtractCF(w, tier, false, func(id int) { rev = append(rev, id) })
		for i := range want {
			if rev[len(rev)-1-i] != want[i] {
				t.Fatalf("seed %d %s: backward CF diverges at %d", seed, tier, i)
			}
		}
	}
}

// checkValues replays the recording path by path and verifies every value
// via the compressed representation.
func checkValues(t *testing.T, seed int64, w *core.WET, rec *trace.Recording) {
	t.Helper()
	ordOf := map[int]int{}
	start := 0
	for _, pe := range rec.Paths {
		n := w.NodeOf(pe.Fn, pe.PathID)
		if n == nil {
			t.Fatalf("seed %d: missing node (fn %d, path %d)", seed, pe.Fn, pe.PathID)
		}
		ord := ordOf[n.ID]
		ordOf[n.ID]++
		for pos, ev := range rec.Events[start:pe.Upto] {
			if !ev.Stmt.Op.HasDef() || ev.Stmt.Dest == ir.NoReg {
				continue
			}
			got, err := w.Value(n, pos, ord, core.Tier2)
			if err != nil {
				t.Fatalf("seed %d: Value: %v", seed, err)
			}
			if uint32(got) != uint32(ev.Value) { // values stored as 32-bit
				t.Fatalf("seed %d: node %d pos %d ord %d = %d, want %d (stmt %s)",
					seed, n.ID, pos, ord, got, ev.Value, ev.Stmt)
			}
		}
		start = pe.Upto
	}
}

// checkSliceSources samples recorded events and verifies the backward
// slice of each contains its direct dependence sources.
func checkSliceSources(t *testing.T, seed int64, w *core.WET, rec *trace.Recording) {
	t.Helper()
	// Locate each instance's (node, pos, ord) by replay.
	type loc struct{ node, pos, ord int }
	locs := make(map[trace.Inst]loc, len(rec.Events))
	ordOf := map[int]int{}
	start := 0
	for _, pe := range rec.Paths {
		n := w.NodeOf(pe.Fn, pe.PathID)
		ord := ordOf[n.ID]
		ordOf[n.ID]++
		for pos := range rec.Events[start:pe.Upto] {
			locs[rec.Events[start+pos].Inst] = loc{n.ID, pos, ord}
		}
		start = pe.Upto
	}
	step := len(rec.Events)/17 + 1
	for i := 0; i < len(rec.Events); i += step {
		ev := rec.Events[i]
		l := locs[ev.Inst]
		res, err := query.BackwardSlice(w, core.Tier2, query.Instance{Node: l.node, Pos: l.pos, Ord: l.ord}, 0)
		if err != nil {
			t.Fatalf("seed %d: slice: %v", seed, err)
		}
		inSlice := map[query.Instance]bool{}
		for _, in := range res.Instances {
			inSlice[in] = true
		}
		for _, src := range ev.DDSrcs {
			if src == 0 {
				continue
			}
			sl := locs[src]
			if !inSlice[query.Instance{Node: sl.node, Pos: sl.pos, Ord: sl.ord}] {
				t.Fatalf("seed %d: slice of inst %d misses DD source inst %d", seed, ev.Inst, src)
			}
		}
		if ev.CDSrc != 0 {
			sl := locs[ev.CDSrc]
			if !inSlice[query.Instance{Node: sl.node, Pos: sl.pos, Ord: sl.ord}] {
				t.Fatalf("seed %d: slice of inst %d misses CD source inst %d", seed, ev.Inst, ev.CDSrc)
			}
		}
	}
}

func TestGenTerminates(t *testing.T) {
	for seed := int64(100); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p, in, err := Gen(rng, DefaultOpts())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		st, err := interp.Analyze(p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Loops are bounded, so every program terminates; calls nested in
		// loops can make runs long, hence the generous step budget.
		res, err := interp.Run(st, interp.Options{Inputs: in, MaxSteps: 1 << 27})
		if err != nil {
			t.Fatalf("seed %d: did not terminate cleanly: %v", seed, err)
		}
		if res.Steps == 0 {
			t.Fatalf("seed %d: empty run", seed)
		}
	}
}

func TestGenDeterministic(t *testing.T) {
	a, inA, err := Gen(rand.New(rand.NewSource(7)), DefaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, inB, err := Gen(rand.New(rand.NewSource(7)), DefaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("same seed produced different programs")
	}
	if len(inA) != len(inB) {
		t.Fatal("same seed produced different inputs")
	}
}

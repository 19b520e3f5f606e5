package wet_test

// Property tests for the byte-budgeted freeze (FreezeOptions.ByteBudget /
// wet.WithByteBudget): the lossless-boundary identity, the budget-sweep
// contracts (achieved ≤ budget, monotone non-increasing fidelity), the
// kept-query identity, the typed refusal on shed streams, and the fidelity
// section's save/load round trip.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"wet"
)

// budgetWorkloads are the acceptance benchmarks of the budget contracts.
var budgetWorkloads = []string{"li", "gzip", "mcf"}

// tryRunWorkload builds one workload at scale 1 and freezes it under the
// given options, returning the freeze error instead of failing the test.
func tryRunWorkload(tb testing.TB, name string, opts ...wet.RunOption) (*wet.Trace, error) {
	tb.Helper()
	wl, err := wet.WorkloadByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	prog, in := wl.Build(1)
	tr, _, err := wet.Run(prog, append([]wet.RunOption{wet.WithInputs(in...)}, opts...)...)
	return tr, err
}

func runWorkload(tb testing.TB, name string, opts ...wet.RunOption) *wet.Trace {
	tb.Helper()
	tr, err := tryRunWorkload(tb, name, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

func saveBytes(tb testing.TB, tr *wet.Trace) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestBudgetAtOrAboveFloorByteIdentical pins the lossless boundary: a
// budget at or above the lossless floor must produce a container
// byte-identical to an unbudgeted freeze, across workloads and both
// container formats (single-epoch v3, segmented v4).
func TestBudgetAtOrAboveFloorByteIdentical(t *testing.T) {
	for _, name := range budgetWorkloads {
		for _, epochTS := range []uint32{0, 1 << 8} {
			t.Run(fmt.Sprintf("%s/epoch=%d", name, epochTS), func(t *testing.T) {
				base := saveBytes(t, runWorkload(t, name, wet.WithEpochTS(epochTS)))
				floor := uint64(len(base))
				for _, budget := range []uint64{floor, floor + 1, 1 << 40} {
					tr := runWorkload(t, name, wet.WithEpochTS(epochTS), wet.WithByteBudget(budget))
					fid := tr.Fidelity()
					if fid == nil || fid.Degraded() {
						t.Fatalf("budget %d ≥ floor %d: fidelity %v", budget, floor, fid)
					}
					if fid.FloorBytes != floor {
						t.Fatalf("fidelity floor %d, unbudgeted container %d bytes", fid.FloorBytes, floor)
					}
					if got := saveBytes(t, tr); !bytes.Equal(base, got) {
						t.Fatalf("budget %d: container differs from unbudgeted (%d vs %d bytes)", budget, len(got), len(base))
					}
				}
			})
		}
	}
}

// TestBudgetSweep descends each workload's budget ladder and checks every
// contract of the acceptance criteria: achieved size ≤ budget (on disk,
// not just reported), fidelity monotonically non-increasing as the budget
// tightens, kept-stream queries identical to the unbudgeted trace, shed
// streams refusing with a typed *query.CapabilityError, and the fidelity
// report surviving the container round trip.
func TestBudgetSweep(t *testing.T) {
	for _, name := range budgetWorkloads {
		t.Run(name, func(t *testing.T) {
			baseTr := runWorkload(t, name)
			base := saveBytes(t, baseTr)
			floor := uint64(len(base))

			prevGroups, prevEdges := math.MaxInt, math.MaxInt
			infeasible := false
			for _, frac := range []float64{0.9, 0.7, 0.5, 0.3, 0.15, 0.1} {
				budget := uint64(float64(floor) * frac)
				tr, err := tryRunWorkload(t, name, wet.WithByteBudget(budget))
				var be *wet.BudgetError
				if errors.As(err, &be) {
					if be.Floor != floor {
						t.Fatalf("budget %d: error floor %d, measured floor %d", budget, be.Floor, floor)
					}
					if be.Best <= budget {
						t.Fatalf("budget %d claimed unreachable but ladder best is %d", budget, be.Best)
					}
					infeasible = true
					continue
				}
				if err != nil {
					t.Fatalf("budget %d: %v", budget, err)
				}
				if infeasible {
					t.Fatalf("budget %d feasible after a larger budget was not", budget)
				}

				fid := tr.Fidelity()
				if fid == nil || !fid.Degraded() {
					t.Fatalf("budget %d < floor %d: fidelity %v", budget, floor, fid)
				}
				if fid.BudgetBytes != budget || fid.FloorBytes != floor {
					t.Fatalf("fidelity header %d/%d, want %d/%d", fid.BudgetBytes, fid.FloorBytes, budget, floor)
				}
				got := saveBytes(t, tr)
				if uint64(len(got)) != fid.AchievedBytes {
					t.Fatalf("budget %d: reported %d B, container is %d B", budget, fid.AchievedBytes, len(got))
				}
				if uint64(len(got)) > budget {
					t.Fatalf("budget %d exceeded: container is %d B", budget, len(got))
				}
				if fid.GroupsKept > prevGroups || fid.EdgesKept > prevEdges {
					t.Fatalf("fidelity not monotone at budget %d: kept %d/%d after kept %d/%d",
						budget, fid.GroupsKept, fid.EdgesKept, prevGroups, prevEdges)
				}
				prevGroups, prevEdges = fid.GroupsKept, fid.EdgesKept

				checkBudgetQueries(t, baseTr, tr)
				checkBudgetRoundTrip(t, baseTr, tr, got)
			}
			if prevGroups == math.MaxInt {
				t.Fatal("sweep never produced a feasible degraded budget")
			}
		})
	}
}

// droppedSets indexes a fidelity report's shed streams.
func droppedSets(fid *wet.FidelityReport) (groups map[[2]int]bool, edges map[int]bool) {
	groups, edges = map[[2]int]bool{}, map[int]bool{}
	for _, d := range fid.DroppedGroups {
		groups[[2]int{d.Node, d.Group}] = true
	}
	for _, d := range fid.DroppedEdges {
		edges[d.Edge] = true
	}
	return groups, edges
}

// checkBudgetQueries verifies the two sides of the never-wrong-data
// contract on a degraded trace: every query whose streams survived answers
// identically to the unbudgeted trace, and every query needing a shed
// stream fails with a typed *query.CapabilityError.
func checkBudgetQueries(t *testing.T, baseTr, tr *wet.Trace) {
	t.Helper()
	fid := tr.Fidelity()
	w := tr.WET()
	droppedGroup, _ := droppedSets(fid)

	// Timestamps are never degraded: the control-flow walk is identical.
	var baseCF, gotCF uint64
	baseH, gotH := uint64(14695981039346656037), uint64(14695981039346656037)
	baseCF = baseTr.ExtractControlFlow(true, func(id int) { baseH = (baseH ^ uint64(id)) * 1099511628211 })
	gotCF = tr.ExtractControlFlow(true, func(id int) { gotH = (gotH ^ uint64(id)) * 1099511628211 })
	if baseCF != gotCF || baseH != gotH {
		t.Fatalf("control flow diverged: %d/%d statements, digest %x/%x", baseCF, gotCF, baseH, gotH)
	}

	// Per-statement value traces: identical where every group survived,
	// typed refusal where any occurrence's group was shed.
	for _, s := range w.Prog.Stmts {
		if !s.Op.HasDef() || s.Dest == wet.NoReg || len(w.StmtOcc[s.ID]) == 0 {
			continue
		}
		affected := false
		for _, occ := range w.StmtOcc[s.ID] {
			n := w.Nodes[occ.Node]
			if droppedGroup[[2]int{occ.Node, n.GroupOf[occ.Pos]}] {
				affected = true
				break
			}
		}
		if affected {
			var ce *wet.CapabilityError
			if _, err := tr.ValueTrace(s.ID, nil); !errors.As(err, &ce) {
				t.Fatalf("stmt %d (dropped group): ValueTrace err = %v, want *CapabilityError", s.ID, err)
			} else if ce.Capability != wet.CapValues {
				t.Fatalf("stmt %d refused with capability %q", s.ID, ce.Capability)
			}
			continue
		}
		var want, got []wet.Sample
		if _, err := baseTr.ValueTrace(s.ID, func(sm wet.Sample) { want = append(want, sm) }); err != nil {
			t.Fatalf("stmt %d: base ValueTrace: %v", s.ID, err)
		}
		if _, err := tr.ValueTrace(s.ID, func(sm wet.Sample) { got = append(got, sm) }); err != nil {
			t.Fatalf("stmt %d (kept): ValueTrace: %v", s.ID, err)
		}
		if len(want) != len(got) {
			t.Fatalf("stmt %d: %d vs %d samples", s.ID, len(want), len(got))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("stmt %d sample %d: %+v vs %+v", s.ID, i, want[i], got[i])
			}
		}
	}

	// Slicing through the dependence graph: either the walk avoided every
	// shed edge and matches the unbudgeted slice, or it refuses typed.
	last := w.Nodes[w.LastNode]
	inst := wet.Instance{Node: w.LastNode, Pos: 0, Ord: last.Execs - 1}
	wantSl, err := baseTr.Backward(inst, 0)
	if err != nil {
		t.Fatalf("base backward slice: %v", err)
	}
	gotSl, err := tr.Backward(inst, 0)
	if err != nil {
		var ce *wet.CapabilityError
		if !errors.As(err, &ce) {
			t.Fatalf("backward slice err = %v, want *CapabilityError", err)
		}
		if ce.Capability != wet.CapDependences {
			t.Fatalf("slice refused with capability %q", ce.Capability)
		}
		if len(fid.DroppedEdges) == 0 {
			t.Fatal("slice refused dependence labels but no edges were dropped")
		}
	} else if len(gotSl.Instances) != len(wantSl.Instances) {
		t.Fatalf("slice diverged: %d vs %d instances", len(gotSl.Instances), len(wantSl.Instances))
	}
}

// checkBudgetRoundTrip re-opens a degraded container and verifies the
// fidelity section round-trips and the typed-refusal contract holds on the
// loaded trace too — both on the strict path and under salvage.
func checkBudgetRoundTrip(t *testing.T, baseTr, tr *wet.Trace, data []byte) {
	t.Helper()
	fid := tr.Fidelity()
	for _, mode := range []string{"strict", "salvage"} {
		var opts []wet.OpenOption
		if mode == "salvage" {
			opts = append(opts, wet.WithSalvage())
		}
		got, rep, err := wet.Open(bytes.NewReader(data), opts...)
		if err != nil {
			t.Fatalf("%s open: %v", mode, err)
		}
		if mode == "salvage" && !rep.Salvage.Clean() {
			t.Fatalf("salvage open of intact degraded file lossy: %s", rep.Salvage)
		}
		lf := got.Fidelity()
		if lf == nil {
			t.Fatalf("%s open lost the fidelity report", mode)
		}
		if lf.BudgetBytes != fid.BudgetBytes || lf.FloorBytes != fid.FloorBytes ||
			lf.AchievedBytes != fid.AchievedBytes ||
			len(lf.DroppedGroups) != len(fid.DroppedGroups) || len(lf.DroppedEdges) != len(fid.DroppedEdges) {
			t.Fatalf("%s open fidelity mismatch:\n built %s\nloaded %s", mode, fid, lf)
		}
		checkBudgetQueries(t, baseTr, got)
	}
}

package query

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"wet/internal/core"
	"wet/internal/interp"
	"wet/internal/ir"
	"wet/internal/progen"
	"wet/internal/sanalysis"
	"wet/internal/wetio"
	"wet/internal/workload"
)

func cmpInst(x, y Instance) int {
	return cmp.Or(cmp.Compare(x.Node, y.Node), cmp.Compare(x.Ord, y.Ord), cmp.Compare(x.Pos, y.Pos))
}

func sortedInsts(in []Instance) []Instance {
	out := slices.Clone(in)
	slices.SortFunc(out, cmpInst)
	return out
}

// sliceView is one way of reading one trace: a WET and the tier to read.
type sliceView struct {
	name string
	w    *core.WET
	tier core.Tier
}

// sliceViews builds p twice — in one epoch, and streamed in epochs of
// epochTS timestamps, saved and reopened — and returns every tier and open
// mode of the two. The two builds number nodes, positions and edges alike,
// so an instance means the same thing in every view.
func sliceViews(t *testing.T, p *ir.Program, in []int64, epochTS uint32) []sliceView {
	t.Helper()
	st, err := interp.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	build := func(epochTS uint32) *core.WET {
		w, _, _, err := core.BuildStreaming(st, interp.Options{Inputs: in, MaxSteps: 1 << 22}, core.FreezeOptions{EpochTS: epochTS})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	single := build(0)
	var buf bytes.Buffer
	if err := wetio.Save(&buf, build(epochTS)); err != nil {
		t.Fatal(err)
	}
	open := func(opts wetio.LoadOptions) *core.WET {
		w, err := wetio.Load(bytes.NewReader(buf.Bytes()), opts)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	return []sliceView{
		{"single/tier1", single, core.Tier1},
		{"single/tier2", single, core.Tier2},
		{"reopened/tier2", open(wetio.LoadOptions{}), core.Tier2},
		{"lazy/tier2", open(wetio.LoadOptions{Lazy: true}), core.Tier2},
	}
}

// sliceCriteria picks the last statement of the node executing at k evenly
// spaced points of the run.
func sliceCriteria(t *testing.T, w *core.WET, k uint32) (crit []Instance) {
	t.Helper()
	for i := uint32(1); i < 2*k; i += 2 {
		wk := NewWalker(w, core.Tier2)
		if err := wk.StartAt(max(w.Time*i/(2*k), 1)); err != nil {
			t.Fatal(err)
		}
		crit = append(crit, Instance{Node: wk.Node, Pos: len(w.Nodes[wk.Node].Stmts) - 1, Ord: wk.Ord})
	}
	return crit
}

// TestSlicesMatchWorklistReference compares the sweep with the worklist
// slicers it replaced (slice_ref_test.go) on every workload and a handful of
// generated programs, in every view of each. Uncapped, the instance set,
// Edges and PrunedCD must be the reference's. A capped slice is new
// behaviour with its own contract: at most cap instances, criterion first,
// a subset of the uncapped slice, and one answer for (trace, criterion, cap)
// in every view and on a second run.
func TestSlicesMatchWorklistReference(t *testing.T) {
	type prog struct {
		name string
		p    *ir.Program
		in   []int64
	}
	var progs []prog
	for _, wl := range workload.All() {
		p, in := wl.Build(1)
		progs = append(progs, prog{wl.Name, p, in})
	}
	for _, seed := range []int64{7100, 7101, 7104, 7105, 7106, 7110} {
		p, in, err := progen.Gen(rand.New(rand.NewSource(seed)), progen.DefaultOpts())
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog{fmt.Sprintf("progen-%d", seed), p, in})
	}
	compared := 0
	for _, pg := range progs {
		views := sliceViews(t, pg.p, pg.in, 1<<8)
		oracle, err := sanalysis.Analyze(pg.p)
		if err != nil {
			t.Fatal(err)
		}
		for ci, c := range sliceCriteria(t, views[0].w, 3) {
			for _, back := range []bool{true, false} {
				for _, cdo := range []CDOracle{nil, oracle} {
					if !back && cdo != nil {
						continue // forward slices take no oracle
					}
					name := fmt.Sprintf("%s/crit%d/back=%v/oracle=%v", pg.name, ci, back, cdo != nil)
					slice := func(v sliceView, limit int) *SliceResult {
						var res *SliceResult
						var err error
						if back {
							res, err = BackwardSliceOpts(v.w, v.tier, c, SliceOptions{MaxInstances: limit, CDOracle: cdo})
						} else {
							res, err = ForwardSlice(v.w, v.tier, c, limit)
						}
						if err != nil {
							t.Fatalf("%s/%s: %v", name, v.name, err)
						}
						if len(res.Instances) == 0 || res.Instances[0] != c {
							t.Fatalf("%s/%s/cap=%d: slice does not start with its criterion", name, v.name, limit)
						}
						return res
					}
					var full []Instance
					for _, v := range views {
						want := refForwardSlice(v.w, v.tier, c, 0)
						if back {
							want = refBackwardSlice(v.w, v.tier, c, SliceOptions{CDOracle: cdo})
						}
						got := slice(v, 0)
						full = sortedInsts(got.Instances)
						if !slices.Equal(full, sortedInsts(want.Instances)) || got.Edges != want.Edges || got.PrunedCD != want.PrunedCD {
							t.Fatalf("%s/%s: sweep found %d instances over %d edges (%d CD pruned), the worklist %d over %d (%d)",
								name, v.name, len(got.Instances), got.Edges, got.PrunedCD, len(want.Instances), want.Edges, want.PrunedCD)
						}
						if !slices.IsSortedFunc(got.Instances[1:], cmpInst) {
							t.Fatalf("%s/%s: instances after the criterion are not in (Node, Ord, Pos) order", name, v.name)
						}
						compared += len(full)
					}
					for _, limit := range []int{1, 50, 500} {
						first := slice(views[0], limit)
						if len(first.Instances) != min(limit, len(full)) {
							t.Fatalf("%s/cap=%d: %d instances of an uncapped %d", name, limit, len(first.Instances), len(full))
						}
						for _, in := range first.Instances {
							if _, ok := slices.BinarySearchFunc(full, in, cmpInst); !ok {
								t.Fatalf("%s/cap=%d: %+v is not in the uncapped slice", name, limit, in)
							}
						}
						for _, v := range append(views[1:], views[0]) {
							if again := slice(v, limit); !slices.Equal(again.Instances, first.Instances) ||
								again.Edges != first.Edges || again.PrunedCD != first.PrunedCD {
								t.Fatalf("%s/cap=%d: %s answers differently from %s", name, limit, v.name, views[0].name)
							}
						}
					}
				}
			}
		}
	}
	if compared < 100000 {
		t.Fatalf("compared only %d slice instances", compared)
	}
}

// TestCappedForwardIsEarliestFirst: a forward slice capped at k is its
// criterion and the k-1 other members of the uncapped slice that executed
// first, ordered by (timestamp, position), at tier 1 and tier 2 of a
// single-epoch build and in a 256-timestamp-epoch container opened eager and
// lazy.
func TestCappedForwardIsEarliestFirst(t *testing.T) {
	cut := 0
	for _, name := range []string{"li", "gzip", "mcf", "vortex"} {
		wl, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p, in := wl.Build(1)
		views := sliceViews(t, p, in, 1<<8)
		w := views[0].w
		ts := func(in Instance) uint32 { return core.SeqAt(w.TSSeq(w.Nodes[in.Node], core.Tier1), in.Ord) }
		for _, c := range sliceCriteria(t, w, 3) {
			for _, c := range []Instance{c, {Node: c.Node, Pos: 0, Ord: c.Ord}} {
				full, err := ForwardSlice(w, core.Tier1, c, 0)
				if err != nil {
					t.Fatal(err)
				}
				order := slices.Clone(full.Instances[1:])
				slices.SortFunc(order, func(x, y Instance) int { return cmp.Or(cmp.Compare(ts(x), ts(y)), cmp.Compare(x.Pos, y.Pos)) })
				for _, limit := range []int{1, 50, 500} {
					want := sortedInsts(append([]Instance{c}, order[:min(limit-1, len(order))]...))
					if limit <= len(order) {
						cut++
					}
					for _, v := range views {
						got, err := ForwardSlice(v.w, v.tier, c, limit)
						if err != nil {
							t.Fatal(err)
						}
						if got.Instances[0] != c || !slices.Equal(sortedInsts(got.Instances), want) {
							t.Fatalf("%s %+v cap %d %s: %d instances, not the criterion and the %d that executed first",
								name, c, limit, v.name, len(got.Instances), len(want)-1)
						}
					}
				}
			}
		}
	}
	if cut < 20 {
		t.Fatalf("only %d capped slices were cut short", cut)
	}
}

// TestInstSetWideCoordinates: the set keeps apart instances whose node or
// position does not fit 16 bits; the packed map key it replaced aliased
// (70000, p, o) with (70000-65536, p, o). A released set holds nothing.
func TestInstSetWideCoordinates(t *testing.T) {
	const wide = 70000
	w := &core.WET{Nodes: make([]*core.Node, wide+1)}
	for _, id := range []int{wide - 1<<16, wide} {
		w.Nodes[id] = &core.Node{ID: id, Execs: 3000, Stmts: make([]*ir.Stmt, wide+1)}
	}
	s := new(instSet)
	s.bind(w)
	in := Instance{Node: wide, Pos: wide, Ord: 2999}
	aliases := []Instance{
		{Node: wide - 1<<16, Pos: wide, Ord: 2999},
		{Node: wide, Pos: wide - 1<<16, Ord: 2999},
		{Node: wide, Pos: wide, Ord: 2999 - pageOrds},
	}
	if !s.add(in.Node, in.Pos, in.Ord, false) || s.add(in.Node, in.Pos, in.Ord, false) {
		t.Fatal("add does not report a first insertion exactly once")
	}
	for _, a := range aliases {
		if s.has(a) {
			t.Fatalf("%+v reads as a member after only %+v was added", a, in)
		}
	}
	for _, a := range aliases {
		if !s.add(a.Node, a.Pos, a.Ord, false) {
			t.Fatalf("%+v taken for a duplicate", a)
		}
	}
	if s.add(wide, wide, 3000, false) || s.has(Instance{Node: wide, Pos: wide, Ord: 3000}) {
		t.Fatal("an ordinal past the node's executions was added")
	}
	var got []Instance
	s.each(func(in Instance) { got = append(got, in) })
	if want := sortedInsts(append(aliases, in)); !slices.Equal(got, want) || s.n != len(want) {
		t.Fatalf("each yields %v (n=%d), want %v", got, s.n, want)
	}
	// Released and bound again, the set is empty, and its reused pages too.
	s.release()
	s.bind(w)
	got = got[:0]
	s.each(func(in Instance) { got = append(got, in) })
	if len(got) != 0 || s.n != 0 || s.has(in) || !s.add(in.Node, in.Pos, in.Ord, false) {
		t.Fatalf("a released set still holds %v (n=%d)", got, s.n)
	}
}

// TestDependenceChainControl: opIdx < 0 starts the chain along the control
// dependence. It used to skip every CD edge and return the start alone.
func TestDependenceChainControl(t *testing.T) {
	w, rec := buildWET(t, chainProgram(t), []int64{7})
	var addID int
	for _, e := range rec.Events {
		if e.Stmt.Op == ir.OpAdd {
			addID = e.Stmt.ID // c = b+5, guarded by the branch on a > 0
		}
	}
	ref := w.StmtOcc[addID][0]
	for _, tier := range []core.Tier{core.Tier1, core.Tier2} {
		chain, err := DependenceChain(w, tier, Instance{Node: ref.Node, Pos: ref.Pos, Ord: 0}, -1, 10)
		if err != nil {
			t.Fatal(err)
		}
		var ops []ir.Op
		for _, in := range chain {
			ops = append(ops, w.Nodes[in.Node].Stmts[in.Pos].Op)
		}
		// add <-cd- br <-dd0- gt <-dd0- input
		if want := []ir.Op{ir.OpAdd, ir.OpBr, ir.OpGt, ir.OpInput}; !slices.Equal(ops, want) {
			t.Fatalf("%s: control chain is %v, want %v", tier, ops, want)
		}
	}
}

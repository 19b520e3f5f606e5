package query

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"wet/internal/core"
	"wet/internal/interp"
	"wet/internal/ir"
	"wet/internal/trace"
	"wet/internal/workload"
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

func buildWET(t *testing.T, p *ir.Program, inputs []int64) (*core.WET, *trace.Recording) {
	t.Helper()
	st, err := interp.Analyze(p)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	b := core.NewBuilder(st, core.FreezeOptions{})
	b.CheckDeterminism = true
	rec := &trace.Recording{}
	cnt := trace.NewCounting(&tee{sinks: []trace.Sink{rec, b}})
	if _, err := interp.Run(st, interp.Options{Inputs: inputs, Sink: cnt, MaxSteps: 1 << 22}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	w, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if w.Raw != cnt.RawStats {
		t.Fatalf("builder's raw counts %+v, Counting's %+v", w.Raw, cnt.RawStats)
	}
	if _, err := w.FreezeErr(core.FreezeOptions{}); err != nil {
		t.Fatal(err)
	}
	return w, rec
}

// mixedProgram exercises loops, branches, memory, and calls.
func mixedProgram(t *testing.T) *ir.Program {
	t.Helper()
	p := ir.NewProgram(4096)
	g := p.NewFunc("weight", 1)
	r := g.NewReg()
	c := g.NewReg()
	g.Le(c, ir.R(g.Param(0)), ir.Imm(2))
	g.If(ir.R(c), func() { g.Ret(ir.Imm(1)) }, nil)
	g.Mul(r, ir.R(g.Param(0)), ir.Imm(3))
	g.Ret(ir.R(r))

	fb := p.NewFunc("main", 0)
	sum := fb.ConstReg(0)
	v := fb.NewReg()
	wv := fb.NewReg()
	par := fb.NewReg()
	fb.For(ir.Imm(0), ir.Imm(12), ir.Imm(1), func(i ir.Reg) {
		fb.Store(ir.R(i), 100, ir.R(i))
		fb.Load(v, ir.R(i), 100)
		fb.Mod(par, ir.R(v), ir.Imm(3))
		fb.If(ir.R(par), func() {
			fb.Call(wv, "weight", ir.R(v))
			fb.Add(sum, ir.R(sum), ir.R(wv))
		}, func() {
			fb.Add(sum, ir.R(sum), ir.Imm(1))
		})
	})
	fb.Output(ir.R(sum))
	fb.Halt()
	p.Entry = 1
	p.MustFinalize()
	return p
}

func TestExtractCFForwardMatchesRecording(t *testing.T) {
	w, rec := buildWET(t, mixedProgram(t), nil)
	want := make([]int, 0, len(rec.Events))
	for _, e := range rec.Events {
		want = append(want, e.Stmt.ID)
	}
	for _, tier := range []core.Tier{core.Tier1, core.Tier2} {
		var got []int
		n := ExtractCF(w, tier, true, func(id int) { got = append(got, id) })
		if n != uint64(len(want)) || len(got) != len(want) {
			t.Fatalf("%s: extracted %d stmts, want %d", tier, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: stmt %d = %d, want %d", tier, i, got[i], want[i])
			}
		}
	}
}

func TestExtractCFBackwardIsReverse(t *testing.T) {
	w, rec := buildWET(t, mixedProgram(t), nil)
	for _, tier := range []core.Tier{core.Tier1, core.Tier2} {
		var got []int
		ExtractCF(w, tier, false, func(id int) { got = append(got, id) })
		if len(got) != len(rec.Events) {
			t.Fatalf("%s: %d stmts backward, want %d", tier, len(got), len(rec.Events))
		}
		for i := range got {
			want := rec.Events[len(rec.Events)-1-i].Stmt.ID
			if got[i] != want {
				t.Fatalf("%s: backward stmt %d = %d, want %d", tier, i, got[i], want)
			}
		}
	}
}

// cfCase is one program with its recording and every view of it
// (sliceViews), streamed in epochs of epochTS timestamps.
type cfCase struct {
	name    string
	rec     *trace.Recording
	epochTS uint32
	views   []sliceView
}

// cfCases returns mixedProgram in epochs of 4 timestamps and gcc in epochs
// of 256, the sparsest of which only one of its 22 nodes ran in.
func cfCases(t *testing.T) []cfCase {
	t.Helper()
	wl, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	gcc, gccIn := wl.Build(1)
	var out []cfCase
	for _, c := range []struct {
		name    string
		p       *ir.Program
		in      []int64
		epochTS uint32
	}{{"mixed", mixedProgram(t), nil, 4}, {"gcc", gcc, gccIn, 1 << 8}} {
		st, err := interp.Analyze(c.p)
		if err != nil {
			t.Fatal(err)
		}
		rec := &trace.Recording{}
		if _, err := interp.Run(st, interp.Options{Inputs: c.in, Sink: rec, MaxSteps: 1 << 22}); err != nil {
			t.Fatal(err)
		}
		out = append(out, cfCase{c.name, rec, c.epochTS, sliceViews(t, c.p, c.in, c.epochTS)})
	}
	return out
}

// recStmts returns the statements the recording executed at timestamps
// from … to.
func recStmts(rec *trace.Recording, from, to uint32) []int {
	start := 0
	if from > 1 {
		start = rec.Paths[from-2].Upto
	}
	var ids []int
	for _, e := range rec.Events[start:rec.Paths[to-1].Upto] {
		ids = append(ids, e.Stmt.ID)
	}
	return ids
}

// TestWalkerStartAtMidTrace: a walker started at seeded random points by
// StartAt, then stepped Forward and Backward in a random mix, is at every
// step on the node execution the recording ran at that timestamp, and stops
// at the ends of the trace — in every view, with one walker (and its
// windows) reused across every start.
func TestWalkerStartAtMidTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, c := range cfCases(t) {
		w0 := c.views[0].w
		// node and ordinal of every timestamp (index ts-1)
		nodeAt, ordAt, execs := make([]int, w0.Time), make([]int, w0.Time), make([]int, len(w0.Nodes))
		for i, pe := range c.rec.Paths {
			n := w0.NodeOf(pe.Fn, pe.PathID).ID
			nodeAt[i], ordAt[i] = n, execs[n]
			execs[n]++
		}
		for _, v := range c.views {
			wk := NewWalker(v.w, v.tier)
			for start := 0; start < 8; start++ {
				ts := 1 + uint32(rng.Intn(int(v.w.Time)))
				if err := wk.StartAt(ts); err != nil {
					t.Fatalf("%s/%s: StartAt(%d): %v", c.name, v.name, ts, err)
				}
				back := rng.Intn(2) == 0
				for step := 0; step < 400; step++ {
					if wk.TS() != ts || wk.Node != nodeAt[ts-1] || wk.Ord != ordAt[ts-1] {
						t.Fatalf("%s/%s: at ts %d the walker is on node %d ord %d (ts %d), want node %d ord %d",
							c.name, v.name, ts, wk.Node, wk.Ord, wk.TS(), nodeAt[ts-1], ordAt[ts-1])
					}
					if rng.Intn(8) == 0 {
						back = !back
					}
					moved := wk.Forward
					next := ts + 1
					if back {
						moved, next = wk.Backward, ts-1
					}
					if ok := moved(); ok != (next >= 1 && next <= v.w.Time) {
						t.Fatalf("%s/%s: step back=%v from ts %d returned %v", c.name, v.name, back, ts, ok)
					} else if ok {
						ts = next
					}
				}
			}
		}
	}
}

func TestLoadValueTraceMatchesRecording(t *testing.T) {
	p := mixedProgram(t)
	w, rec := buildWET(t, p, nil)
	// Expected: per load statement, values in execution order.
	want := map[int][]int64{}
	for _, e := range rec.Events {
		if e.Stmt.Op == ir.OpLoad {
			want[e.Stmt.ID] = append(want[e.Stmt.ID], e.Value)
		}
	}
	for _, tier := range []core.Tier{core.Tier1, core.Tier2} {
		got := map[int][]int64{}
		total, err := LoadValueTraces(w, tier, func(id int, s Sample) {
			got[id] = append(got[id], s.Value)
		})
		if err != nil {
			t.Fatalf("%s: %v", tier, err)
		}
		var wantTotal uint64
		for id, vals := range want {
			wantTotal += uint64(len(vals))
			if len(got[id]) != len(vals) {
				t.Fatalf("%s: load %d trace has %d samples, want %d", tier, id, len(got[id]), len(vals))
			}
			for i := range vals {
				if got[id][i] != vals[i] {
					t.Fatalf("%s: load %d sample %d = %d, want %d", tier, id, i, got[id][i], vals[i])
				}
			}
		}
		if total != wantTotal {
			t.Fatalf("%s: total %d, want %d", tier, total, wantTotal)
		}
	}
}

func TestAddressTraceMatchesRecording(t *testing.T) {
	p := mixedProgram(t)
	w, rec := buildWET(t, p, nil)
	mask := p.MemWords - 1
	want := map[int][]int64{}
	for _, e := range rec.Events {
		if e.Stmt.Op != ir.OpLoad && e.Stmt.Op != ir.OpStore {
			continue
		}
		var addr int64
		if e.Stmt.A.IsReg {
			addr = (e.DDVals[0] + e.Stmt.Off) & mask
		} else {
			addr = (e.Stmt.A.Imm + e.Stmt.Off) & mask
		}
		want[e.Stmt.ID] = append(want[e.Stmt.ID], addr)
	}
	for _, tier := range []core.Tier{core.Tier1, core.Tier2} {
		got := map[int][]int64{}
		_, err := AddressTraces(w, tier, func(id int, s Sample) {
			got[id] = append(got[id], s.Value)
		})
		if err != nil {
			t.Fatalf("%s: %v", tier, err)
		}
		for id, vals := range want {
			if len(got[id]) != len(vals) {
				t.Fatalf("%s: stmt %d address trace has %d samples, want %d", tier, id, len(got[id]), len(vals))
			}
			for i := range vals {
				if got[id][i] != vals[i] {
					t.Fatalf("%s: stmt %d address %d = %d, want %d", tier, id, i, got[id][i], vals[i])
				}
			}
		}
	}
}

// chainProgram: a = input; b = a*2; c = b+5; output c — with an if on a.
func chainProgram(t *testing.T) *ir.Program {
	t.Helper()
	p := ir.NewProgram(1024)
	fb := p.NewFunc("main", 0)
	a := fb.NewReg()
	b := fb.NewReg()
	c := fb.NewReg()
	cond := fb.NewReg()
	fb.Input(a)
	fb.Mul(b, ir.R(a), ir.Imm(2))
	fb.Gt(cond, ir.R(a), ir.Imm(0))
	fb.If(ir.R(cond), func() {
		fb.Add(c, ir.R(b), ir.Imm(5))
	}, func() {
		fb.Const(c, 0)
	})
	fb.Output(ir.R(c))
	fb.Halt()
	p.MustFinalize()
	return p
}

func TestBackwardSliceChain(t *testing.T) {
	w, rec := buildWET(t, chainProgram(t), []int64{7})
	// Criterion: the add (c = b+5) instance.
	var addID int
	for _, e := range rec.Events {
		if e.Stmt.Op == ir.OpAdd {
			addID = e.Stmt.ID
		}
	}
	ref := w.StmtOcc[addID][0]
	for _, tier := range []core.Tier{core.Tier1, core.Tier2} {
		res, err := BackwardSlice(w, tier, Instance{Node: ref.Node, Pos: ref.Pos, Ord: 0}, 0)
		if err != nil {
			t.Fatalf("%s: %v", tier, err)
		}
		ops := map[ir.Op]bool{}
		for _, in := range res.Instances {
			ops[w.Nodes[in.Node].Stmts[in.Pos].Op] = true
		}
		// The slice must include the data chain (input, mul, add) and the
		// controlling branch (br) plus its predicate (gt).
		for _, want := range []ir.Op{ir.OpAdd, ir.OpMul, ir.OpInput, ir.OpBr, ir.OpGt} {
			if !ops[want] {
				t.Fatalf("%s: backward slice misses %s (ops: %v)", tier, want, ops)
			}
		}
		// And must NOT include the untaken arm's const.
		if ops[ir.OpConst] {
			t.Fatalf("%s: slice includes the untaken arm", tier)
		}
	}
}

func TestForwardSliceInverse(t *testing.T) {
	w, rec := buildWET(t, chainProgram(t), []int64{7})
	var inputID int
	for _, e := range rec.Events {
		if e.Stmt.Op == ir.OpInput {
			inputID = e.Stmt.ID
		}
	}
	ref := w.StmtOcc[inputID][0]
	start := Instance{Node: ref.Node, Pos: ref.Pos, Ord: 0}
	res, err := ForwardSlice(w, core.Tier2, start, 0)
	if err != nil {
		t.Fatal(err)
	}
	ops := map[ir.Op]bool{}
	for _, in := range res.Instances {
		ops[w.Nodes[in.Node].Stmts[in.Pos].Op] = true
	}
	for _, want := range []ir.Op{ir.OpMul, ir.OpAdd, ir.OpOutput, ir.OpGt} {
		if !ops[want] {
			t.Fatalf("forward slice misses %s (ops %v)", want, ops)
		}
	}
	// Inverse check: everything in the forward slice has the input in its
	// backward slice.
	for _, in := range res.Instances[1:] {
		back, err := BackwardSlice(w, core.Tier2, in, 0)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, bi := range back.Instances {
			if bi == start {
				found = true
			}
		}
		if !found {
			t.Fatalf("instance %+v forward-reachable but input not in its backward slice", in)
		}
	}
}

func TestSliceOnLoop(t *testing.T) {
	// Slicing the final sum of a loop must pull in all iterations.
	p := ir.NewProgram(1024)
	fb := p.NewFunc("main", 0)
	s := fb.ConstReg(0)
	fb.For(ir.Imm(0), ir.Imm(6), ir.Imm(1), func(i ir.Reg) {
		fb.Add(s, ir.R(s), ir.R(i))
	})
	fb.Output(ir.R(s))
	fb.Halt()
	p.MustFinalize()
	w, rec := buildWET(t, p, nil)
	var outID int
	for _, e := range rec.Events {
		if e.Stmt.Op == ir.OpOutput {
			outID = e.Stmt.ID
		}
	}
	ref := w.StmtOcc[outID][0]
	res, err := BackwardSlice(w, core.Tier2, Instance{Node: ref.Node, Pos: ref.Pos, Ord: 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	adds := 0
	for _, in := range res.Instances {
		if w.Nodes[in.Node].Stmts[in.Pos].Op == ir.OpAdd &&
			w.Nodes[in.Node].Stmts[in.Pos].Dest == ir.Reg(s) {
			adds++
		}
	}
	if adds != 6 {
		t.Fatalf("slice contains %d sum-add instances, want 6", adds)
	}
}

func TestInstanceOfTS(t *testing.T) {
	w, rec := buildWET(t, mixedProgram(t), nil)
	// Find some load event and its covering path timestamp via replay.
	ordOf := map[int]int{}
	start := 0
	var ts uint32
	for pi, pe := range rec.Paths {
		n := w.NodeOf(pe.Fn, pe.PathID)
		ord := ordOf[n.ID]
		ordOf[n.ID]++
		evs := rec.Events[start:pe.Upto]
		start = pe.Upto
		_ = ord
		ts = uint32(pi + 1)
		for pos, e := range evs {
			if e.Stmt.Op == ir.OpLoad && pi > 3 {
				in, err := InstanceOfTS(w, core.Tier2, e.Stmt.ID, ts)
				if err != nil {
					t.Fatalf("InstanceOfTS: %v", err)
				}
				if in.Node != n.ID || in.Pos != pos {
					t.Fatalf("InstanceOfTS = %+v, want node %d pos %d", in, n.ID, pos)
				}
				return
			}
		}
	}
	t.Skip("no load found after path 3")
}

func TestChop(t *testing.T) {
	w, rec := buildWET(t, chainProgram(t), []int64{7})
	var inputID, outID int
	for _, e := range rec.Events {
		switch e.Stmt.Op {
		case ir.OpInput:
			inputID = e.Stmt.ID
		case ir.OpOutput:
			outID = e.Stmt.ID
		}
	}
	inRef := w.StmtOcc[inputID][0]
	outRef := w.StmtOcc[outID][0]
	from := Instance{Node: inRef.Node, Pos: inRef.Pos, Ord: 0}
	to := Instance{Node: outRef.Node, Pos: outRef.Pos, Ord: 0}
	res, err := Chop(w, core.Tier2, from, to, 0)
	if err != nil {
		t.Fatal(err)
	}
	ops := map[ir.Op]bool{}
	for _, in := range res.Instances {
		ops[w.Nodes[in.Node].Stmts[in.Pos].Op] = true
	}
	// The chop contains the data chain input->mul->add->output but not the
	// const in the untaken arm.
	for _, want := range []ir.Op{ir.OpInput, ir.OpMul, ir.OpAdd, ir.OpOutput} {
		if !ops[want] {
			t.Fatalf("chop misses %s (ops %v)", want, ops)
		}
	}
	if ops[ir.OpConst] {
		t.Fatal("chop includes the untaken arm")
	}
}

func TestDependenceChain(t *testing.T) {
	w, rec := buildWET(t, chainProgram(t), []int64{7})
	var outID int
	for _, e := range rec.Events {
		if e.Stmt.Op == ir.OpOutput {
			outID = e.Stmt.ID
		}
	}
	ref := w.StmtOcc[outID][0]
	chain, err := DependenceChain(w, core.Tier2, Instance{Node: ref.Node, Pos: ref.Pos, Ord: 0}, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	// output <- add <- mul <- input: a chain of at least 4.
	if len(chain) < 4 {
		t.Fatalf("chain has %d links: %v", len(chain), chain)
	}
	last := w.Nodes[chain[len(chain)-1].Node].Stmts[chain[len(chain)-1].Pos]
	if last.Op != ir.OpInput {
		t.Fatalf("chain ends at %s, want the input", last)
	}
}

func TestHotPaths(t *testing.T) {
	w, _ := buildWET(t, mixedProgram(t), nil)
	hps := HotPaths(w, 3)
	if len(hps) != 3 {
		t.Fatalf("got %d hot paths", len(hps))
	}
	if hps[0].Execs*hps[0].Stmts < hps[1].Execs*hps[1].Stmts {
		t.Fatal("hot paths not sorted by coverage")
	}
	var cov float64
	for _, hp := range HotPaths(w, 0) {
		cov += hp.Coverage
	}
	if cov < 0.999 || cov > 1.001 {
		t.Fatalf("coverage sums to %f", cov)
	}
}

func TestWriteDOT(t *testing.T) {
	w, rec := buildWET(t, chainProgram(t), []int64{7})
	var outID int
	for _, e := range rec.Events {
		if e.Stmt.Op == ir.OpOutput {
			outID = e.Stmt.ID
		}
	}
	ref := w.StmtOcc[outID][0]
	res, err := BackwardSlice(w, core.Tier2, Instance{Node: ref.Node, Pos: ref.Pos, Ord: 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := WriteDOT(w, core.Tier2, res, &buf); err != nil {
		t.Fatal(err)
	}
	dot := buf.String()
	for _, want := range []string{"digraph wetslice", "->", "style=dashed", "fillcolor=lightgrey", "}"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, dot)
		}
	}
	// Deterministic output.
	var buf2 strings.Builder
	if err := WriteDOT(w, core.Tier2, res, &buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatal("WriteDOT is not deterministic")
	}
}

func TestDiffWETs(t *testing.T) {
	// Same program, different inputs: the branch goes the other way.
	w1, _ := buildWET(t, chainProgram(t), []int64{7})
	w2, _ := buildWET(t, chainProgram(t), []int64{-7})
	d, err := DiffWETs(w1, w2)
	if err != nil {
		t.Fatal(err)
	}
	if d.PathsOnlyA == 0 || d.PathsOnlyB == 0 {
		t.Fatalf("expected divergent paths: %+v", d)
	}
	if len(d.Stmts) == 0 {
		t.Fatal("expected diverging statements (different arms executed)")
	}
	// Identical runs: no differences.
	w3, _ := buildWET(t, chainProgram(t), []int64{7})
	d2, err := DiffWETs(w1, w3)
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.Stmts) != 0 || d2.PathsOnlyA != 0 || d2.PathsOnlyB != 0 {
		t.Fatalf("identical runs reported differences: %+v", d2)
	}
	// Different programs: error.
	wx, _ := buildWET(t, mixedProgram(t), nil)
	if _, err := DiffWETs(w1, wx); err == nil {
		t.Fatal("DiffWETs accepted different programs")
	}
}

func TestValueInvariance(t *testing.T) {
	w, _ := buildWET(t, mixedProgram(t), nil)
	invs, err := ValueInvariance(w, core.Tier2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(invs) == 0 {
		t.Fatal("no invariance entries")
	}
	for i := 1; i < len(invs); i++ {
		if invs[i].TopFraction > invs[i-1].TopFraction+1e-9 {
			t.Fatal("invariance not sorted")
		}
	}
	for _, inv := range invs {
		if inv.TopFraction <= 0 || inv.TopFraction > 1 {
			t.Fatalf("bad fraction %f", inv.TopFraction)
		}
		if inv.Uniques < 1 || uint64(inv.Uniques) > inv.Execs {
			t.Fatalf("bad uniques %d for %d execs", inv.Uniques, inv.Execs)
		}
	}
}

func TestStrideProfiles(t *testing.T) {
	// A program with one strided store and one constant-address load.
	p := ir.NewProgram(1024)
	fb := p.NewFunc("main", 0)
	v := fb.NewReg()
	fb.For(ir.Imm(0), ir.Imm(50), ir.Imm(1), func(i ir.Reg) {
		fb.Store(ir.R(i), 100, ir.R(i)) // stride 1
		fb.Load(v, ir.Imm(7), 0)        // constant address
	})
	fb.Output(ir.R(v))
	fb.Halt()
	p.MustFinalize()
	w, _ := buildWET(t, p, nil)
	sps, err := StrideProfiles(w, core.Tier2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(sps) != 2 {
		t.Fatalf("got %d profiles, want 2", len(sps))
	}
	byPattern := map[RefPattern]StrideProfile{}
	for _, sp := range sps {
		byPattern[sp.Pattern] = sp
	}
	if sp, ok := byPattern[RefStrided]; !ok || sp.Stride != 1 {
		t.Fatalf("no unit-stride profile: %+v", sps)
	}
	if _, ok := byPattern[RefConstant]; !ok {
		t.Fatalf("no constant profile: %+v", sps)
	}
}

// TestExtractCFRange: every window of the control-flow trace is exactly the
// statements the recording executed at those timestamps, in every view —
// windows at either end, one timestamp long, straddling an epoch boundary,
// inside an epoch most nodes have no segment in, clipped by the ends of the
// trace, and past its end.
func TestExtractCFRange(t *testing.T) {
	for _, c := range cfCases(t) {
		tm, e := c.views[0].w.Time, c.epochTS
		// The epoch fewest nodes ran in, from the segmented view.
		seg := c.views[3].w
		ran := make([]int, seg.Epochs)
		for _, n := range seg.Nodes {
			for _, sg := range n.TSSegs {
				ran[sg.Epoch]++
			}
		}
		sparse := uint32(slices.Index(ran, slices.Min(ran[:len(ran)-1])))
		if seg.Epochs < 3 || 2*ran[sparse] >= len(seg.Nodes) {
			t.Fatalf("%s: %d epochs, the sparsest run by %d of %d nodes", c.name, seg.Epochs, ran[sparse], len(seg.Nodes))
		}
		windows := [][2]uint32{
			{1, 1}, {1, 40}, {tm, tm}, {tm - min(tm-1, 30), tm}, {tm / 2, tm / 2}, {1, tm},
			{e - 2, e + 3}, {2*e - 1, 2*e + 1}, {e*sparse + 2, e*sparse + e - 1},
			{0, 5}, {tm - 3, tm + 100}, {tm + 1, tm + 10},
		}
		for _, v := range c.views {
			for _, win := range windows {
				var got []int
				n, err := ExtractCFRange(v.w, v.tier, win[0], win[1], func(id int) { got = append(got, id) })
				var want []int
				if from, to := max(win[0], 1), min(win[1], tm); from <= to {
					want = recStmts(c.rec, from, to)
				}
				if err != nil || n != uint64(len(want)) || !slices.Equal(got, want) {
					t.Fatalf("%s/%s: window %v emitted %d statements (n=%d, err=%v), want the recording's %d",
						c.name, v.name, win, len(got), n, err, len(want))
				}
			}
			// An inverted range is a caller bug and must surface as
			// *RangeError, not a silent empty extraction.
			n, err := ExtractCFRange(v.w, v.tier, 10, 5, nil)
			var re *RangeError
			if n != 0 || !errors.As(err, &re) || re.From != 10 || re.To != 5 {
				t.Fatalf("%s/%s: inverted range: n=%d err=%#v, want *RangeError{10, 5}", c.name, v.name, n, err)
			}
		}
	}
}

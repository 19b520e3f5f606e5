package interp

import (
	"slices"
	"testing"

	"wet/internal/ir"
	"wet/internal/trace"
)

func run(t *testing.T, p *ir.Program, inputs []int64, sink trace.Sink) *Result {
	t.Helper()
	st, err := Analyze(p)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	res, err := Run(st, Options{Inputs: inputs, Sink: sink, CollectOutput: true, MaxSteps: 1 << 22})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestCountdownOutputs(t *testing.T) {
	p := ir.NewProgram(1024)
	fb := p.NewFunc("main", 0)
	x := fb.ConstReg(3)
	c := fb.NewReg()
	fb.While(func() ir.Operand {
		fb.Gt(c, ir.R(x), ir.Imm(0))
		return ir.R(c)
	}, func() {
		fb.Sub(x, ir.R(x), ir.Imm(1))
		fb.Output(ir.R(x))
	})
	fb.Halt()
	p.MustFinalize()
	res := run(t, p, nil, nil)
	want := []int64{2, 1, 0}
	if len(res.Outputs) != len(want) {
		t.Fatalf("outputs = %v, want %v", res.Outputs, want)
	}
	for i := range want {
		if res.Outputs[i] != want[i] {
			t.Fatalf("outputs = %v, want %v", res.Outputs, want)
		}
	}
}

func TestArithmeticSemantics(t *testing.T) {
	p := ir.NewProgram(1024)
	fb := p.NewFunc("main", 0)
	a := fb.ConstReg(7)
	bb := fb.ConstReg(-3)
	r := fb.NewReg()
	emit := func() { fb.Output(ir.R(r)) }
	fb.Add(r, ir.R(a), ir.R(bb))
	emit() // 4
	fb.Mul(r, ir.R(a), ir.R(bb))
	emit() // -21
	fb.Div(r, ir.R(a), ir.Imm(0))
	emit() // 0 (div by zero defined as 0)
	fb.Mod(r, ir.R(a), ir.Imm(0))
	emit() // 0
	fb.Div(r, ir.R(a), ir.Imm(2))
	emit() // 3
	fb.Shl(r, ir.Imm(1), ir.Imm(65))
	emit() // 1<<1 = 2 (shift count masked to 64)
	fb.Lt(r, ir.R(bb), ir.R(a))
	emit() // 1
	fb.Neg(r, ir.R(bb))
	emit() // 3
	fb.Not(r, ir.Imm(0))
	emit() // -1
	fb.Halt()
	p.MustFinalize()
	res := run(t, p, nil, nil)
	want := []int64{4, -21, 0, 0, 3, 2, 1, 3, -1}
	for i, w := range want {
		if res.Outputs[i] != w {
			t.Fatalf("output[%d] = %d, want %d (all: %v)", i, res.Outputs[i], w, res.Outputs)
		}
	}
}

func TestMemoryAndInput(t *testing.T) {
	p := ir.NewProgram(1024)
	fb := p.NewFunc("main", 0)
	v := fb.NewReg()
	fb.Input(v)
	fb.Store(ir.Imm(100), 0, ir.R(v))
	w := fb.NewReg()
	fb.Load(w, ir.Imm(99), 1) // same address via offset
	fb.Output(ir.R(w))
	fb.Input(v) // second read
	fb.Output(ir.R(v))
	fb.Input(v) // tape exhausted -> 0
	fb.Output(ir.R(v))
	fb.Halt()
	p.MustFinalize()
	res := run(t, p, []int64{42, 7}, nil)
	want := []int64{42, 7, 0}
	for i, wv := range want {
		if res.Outputs[i] != wv {
			t.Fatalf("outputs = %v, want %v", res.Outputs, want)
		}
	}
}

func TestCallReturnValue(t *testing.T) {
	p := ir.NewProgram(1024)
	g := p.NewFunc("square", 1)
	r := g.NewReg()
	g.Mul(r, ir.R(g.Param(0)), ir.R(g.Param(0)))
	g.Ret(ir.R(r))
	fb := p.NewFunc("main", 0)
	d := fb.NewReg()
	fb.Call(d, "square", ir.Imm(9))
	fb.Output(ir.R(d))
	// Nested: square(square(2)) = 16
	e := fb.NewReg()
	fb.Call(e, "square", ir.Imm(2))
	fb.Call(e, "square", ir.R(e))
	fb.Output(ir.R(e))
	fb.Halt()
	p.Entry = 1
	p.MustFinalize()
	res := run(t, p, nil, nil)
	if res.Outputs[0] != 81 || res.Outputs[1] != 16 {
		t.Fatalf("outputs = %v, want [81 16]", res.Outputs)
	}
}

func TestRecursion(t *testing.T) {
	// fact(n) = n<=1 ? 1 : n*fact(n-1)
	p := ir.NewProgram(1024)
	g := p.NewFunc("fact", 1)
	n := g.Param(0)
	c := g.NewReg()
	g.Le(c, ir.R(n), ir.Imm(1))
	g.If(ir.R(c), func() {
		g.Ret(ir.Imm(1))
	}, nil)
	m := g.NewReg()
	g.Sub(m, ir.R(n), ir.Imm(1))
	sub := g.NewReg()
	g.Call(sub, "fact", ir.R(m))
	r := g.NewReg()
	g.Mul(r, ir.R(n), ir.R(sub))
	g.Ret(ir.R(r))
	fb := p.NewFunc("main", 0)
	d := fb.NewReg()
	fb.Call(d, "fact", ir.Imm(6))
	fb.Output(ir.R(d))
	fb.Halt()
	p.Entry = 1
	p.MustFinalize()
	res := run(t, p, nil, nil)
	if res.Outputs[0] != 720 {
		t.Fatalf("fact(6) = %v, want 720", res.Outputs)
	}
}

func TestDataDependenceThroughMemory(t *testing.T) {
	p := ir.NewProgram(1024)
	fb := p.NewFunc("main", 0)
	v := fb.ConstReg(5) // instance (1, 0): the first statement of the first path
	fb.Store(ir.Imm(10), 0, ir.R(v))
	w := fb.NewReg()
	fb.Load(w, ir.Imm(10), 0)
	fb.Output(ir.R(w))
	fb.Halt()
	p.MustFinalize()
	rec := &trace.Recording{}
	run(t, p, nil, rec)

	var constInst, storeInst trace.Inst
	for _, e := range rec.Events {
		switch e.Stmt.Op {
		case ir.OpConst:
			constInst = e.Inst
		case ir.OpStore:
			storeInst = e.Inst
			if len(e.DDSrcs) != 1 || e.DDSrcs[0] != constInst {
				t.Fatalf("store DD = %v, want [%d]", e.DDSrcs, constInst)
			}
		case ir.OpLoad:
			// Load with immediate address: single DD from memory.
			if len(e.DDSrcs) != 1 || e.DDSrcs[0] != storeInst {
				t.Fatalf("load DD = %v, want [%d] (the store)", e.DDSrcs, storeInst)
			}
		case ir.OpOutput:
			if len(e.DDSrcs) != 1 || e.DDSrcs[0] == 0 {
				t.Fatalf("output DD = %v, want the load instance", e.DDSrcs)
			}
		}
	}
	if constInst == 0 || storeInst == 0 {
		t.Fatal("missing const/store events")
	}
}

func TestControlDependenceDynamic(t *testing.T) {
	p := ir.NewProgram(1024)
	fb := p.NewFunc("main", 0)
	c := fb.NewReg()
	fb.Input(c)
	x := fb.NewReg()
	fb.If(ir.R(c), func() { fb.Const(x, 1) }, func() { fb.Const(x, 2) })
	fb.Output(ir.R(x))
	fb.Halt()
	p.MustFinalize()
	rec := &trace.Recording{}
	run(t, p, []int64{1}, rec)

	var brInst trace.Inst
	for _, e := range rec.Events {
		if e.Stmt.Op == ir.OpBr {
			brInst = e.Inst
		}
	}
	if brInst == 0 {
		t.Fatal("no branch executed")
	}
	sawArm := false
	for _, e := range rec.Events {
		if e.Stmt.Op == ir.OpConst && (e.Value == 1 || e.Value == 2) {
			sawArm = true
			if e.CDSrc != brInst {
				t.Fatalf("arm const CD = %d, want branch inst %d", e.CDSrc, brInst)
			}
		}
		if e.Stmt.Op == ir.OpInput && e.CDSrc != 0 {
			t.Fatalf("input before branch has CD %d, want 0", e.CDSrc)
		}
	}
	if !sawArm {
		t.Fatal("no arm executed")
	}
}

func TestLoopCarriedControlDependence(t *testing.T) {
	// Each iteration's body is control dependent on the loop-head branch
	// instance of the SAME iteration test.
	p := ir.NewProgram(1024)
	fb := p.NewFunc("main", 0)
	x := fb.ConstReg(2)
	c := fb.NewReg()
	fb.While(func() ir.Operand {
		fb.Gt(c, ir.R(x), ir.Imm(0))
		return ir.R(c)
	}, func() {
		fb.Sub(x, ir.R(x), ir.Imm(1))
	})
	fb.Halt()
	p.MustFinalize()
	rec := &trace.Recording{}
	run(t, p, nil, rec)

	var brs []trace.Inst
	for _, e := range rec.Events {
		if e.Stmt.Op == ir.OpBr {
			brs = append(brs, e.Inst)
		}
	}
	if len(brs) != 3 {
		t.Fatalf("branch executed %d times, want 3", len(brs))
	}
	subIdx := 0
	for _, e := range rec.Events {
		if e.Stmt.Op == ir.OpSub {
			if e.CDSrc != brs[subIdx] {
				t.Fatalf("iteration %d sub CD = %d, want %d", subIdx, e.CDSrc, brs[subIdx])
			}
			subIdx++
		}
	}
	if subIdx != 2 {
		t.Fatalf("sub executed %d times, want 2", subIdx)
	}
}

func TestPathsPartitionStatementStream(t *testing.T) {
	p := ir.NewProgram(1024)
	fb := p.NewFunc("main", 0)
	s := fb.ConstReg(0)
	fb.For(ir.Imm(0), ir.Imm(10), ir.Imm(1), func(i ir.Reg) {
		fb.Add(s, ir.R(s), ir.R(i))
	})
	fb.Output(ir.R(s))
	fb.Halt()
	p.MustFinalize()
	st, err := Analyze(p)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	rec := &trace.Recording{}
	if _, err := Run(st, Options{Sink: rec}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rec.Paths) == 0 {
		t.Fatal("no paths recorded")
	}
	if rec.Paths[len(rec.Paths)-1].Upto != len(rec.Events) {
		t.Fatalf("last path covers %d events, total %d", rec.Paths[len(rec.Paths)-1].Upto, len(rec.Events))
	}
	// Each path's events must exactly match its decoded block sequence.
	start := 0
	for _, pe := range rec.Paths {
		blocks, err := st.Paths[pe.Fn].Blocks(pe.PathID)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		var wantStmts []*ir.Stmt
		f := p.Funcs[pe.Fn]
		for _, bid := range blocks {
			wantStmts = append(wantStmts, f.Blocks[bid].Stmts...)
		}
		got := rec.Events[start:pe.Upto]
		if len(got) != len(wantStmts) {
			t.Fatalf("path (fn %d, id %d): %d events, want %d", pe.Fn, pe.PathID, len(got), len(wantStmts))
		}
		for i := range got {
			if got[i].Stmt != wantStmts[i] {
				t.Fatalf("path stmt mismatch at %d: got [%d]%s want [%d]%s", i, got[i].Stmt.ID, got[i].Stmt, wantStmts[i].ID, wantStmts[i])
			}
		}
		start = pe.Upto
	}
}

// TestInstancesNamedByPath: every statement event is named by the timestamp
// of its path execution and its position in the path — through calls, which
// end a path mid-block, and across two threads interleaved at path
// boundaries — every dependence source names an instance already emitted,
// and every source PathSources says the path fixes is the one read.
func TestInstancesNamedByPath(t *testing.T) {
	p := ir.NewProgram(1024)
	g := p.NewFunc("worker", 1)
	acc := g.ConstReg(0)
	g.For(ir.Imm(0), ir.R(g.Param(0)), ir.Imm(1), func(i ir.Reg) {
		x := g.NewReg()
		g.LoadShared(x, ir.R(i), 0)
		g.Add(acc, ir.R(acc), ir.R(x))
		g.StoreShared(ir.R(i), 0, ir.R(acc))
	})
	g.Ret(ir.R(acc))
	sq := p.NewFunc("square", 1)
	r := sq.NewReg()
	sq.Mul(r, ir.R(sq.Param(0)), ir.R(sq.Param(0)))
	sq.Ret(ir.R(r))
	fb := p.NewFunc("main", 0)
	tid := fb.NewReg()
	fb.Spawn(tid, "worker", ir.Imm(20))
	s := fb.ConstReg(0)
	fb.For(ir.Imm(0), ir.Imm(10), ir.Imm(1), func(i ir.Reg) {
		d := fb.NewReg()
		fb.Call(d, "square", ir.R(i))
		fb.Store(ir.R(i), 100, ir.R(d))
		fb.Add(s, ir.R(s), ir.R(d))
	})
	j := fb.NewReg()
	fb.Join(j, ir.R(tid))
	fb.Output(ir.R(fb.Add(fb.NewReg(), ir.R(s), ir.R(j))))
	fb.Halt()
	p.Entry = 2
	p.MustFinalize()
	st, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	rec := &trace.Recording{}
	if _, err := Run(st, Options{Sink: rec}); err != nil {
		t.Fatal(err)
	}

	seen := map[trace.Inst]bool{}
	start, fixed := 0, 0
	for k, pe := range rec.Paths {
		blocks, err := st.Paths[pe.Fn].Blocks(pe.PathID)
		if err != nil {
			t.Fatal(err)
		}
		plan, nops := st.PathSources(pe.Fn, blocks)
		if len(nops) != pe.Upto-start {
			t.Fatalf("path %d: PathSources covers %d statements, the path ran %d", k+1, len(nops), pe.Upto-start)
		}
		slot := 0
		for pos, e := range rec.Events[start:pe.Upto] {
			if int(nops[pos]) != len(e.DDSrcs) {
				t.Fatalf("(%d, %d): %d operand sources, PathSources says %d", k+1, pos, len(e.DDSrcs), nops[pos])
			}
			for j, got := range append(slices.Clone(e.DDSrcs), e.CDSrc) {
				if want := plan[slot+j]; want >= 0 {
					fixed++
					if got != trace.InstAt(uint32(k+1), int(want)) {
						t.Fatalf("(%d, %d) operand %d reads %#x, PathSources fixes position %d", k+1, pos, j, got, want)
					}
				}
			}
			slot += len(e.DDSrcs) + 1
			if want := trace.InstAt(uint32(k+1), pos); e.Inst != want {
				t.Fatalf("path %d position %d is named %#x, want %#x", k+1, pos, e.Inst, want)
			}
			if trace.InstTS(e.Inst) != uint32(k+1) || trace.InstPos(e.Inst) != pos {
				t.Fatalf("name %#x does not split back into (%d, %d)", e.Inst, k+1, pos)
			}
			for _, src := range append(slices.Clone(e.DDSrcs), e.CDSrc) {
				if src != 0 && !seen[src] {
					t.Fatalf("[%d]%s at (%d, %d) depends on %#x, not emitted before it", e.Stmt.ID, e.Stmt, k+1, pos, src)
				}
			}
			seen[e.Inst] = true
		}
		start = pe.Upto
	}
	if len(rec.Paths) < 40 || fixed == 0 {
		t.Fatalf("%d path executions, %d fixed sources; the program should interleave many paths that fix sources", len(rec.Paths), fixed)
	}
}

func TestCountingSinkStats(t *testing.T) {
	p := ir.NewProgram(1024)
	fb := p.NewFunc("main", 0)
	s := fb.ConstReg(0)
	fb.For(ir.Imm(0), ir.Imm(5), ir.Imm(1), func(i ir.Reg) {
		fb.Add(s, ir.R(s), ir.R(i))
		fb.Store(ir.R(i), 0, ir.R(s))
	})
	fb.Halt()
	p.MustFinalize()
	cnt := trace.NewCounting(nil)
	res := run(t, p, nil, cnt)
	if cnt.StmtExecs != res.Steps {
		t.Fatalf("StmtExecs %d != Steps %d", cnt.StmtExecs, res.Steps)
	}
	if cnt.Stores != 5 {
		t.Fatalf("Stores = %d, want 5", cnt.Stores)
	}
	if cnt.Branches != 6 {
		t.Fatalf("Branches = %d, want 6", cnt.Branches)
	}
	if cnt.DefExecs == 0 || cnt.DefExecs >= cnt.StmtExecs {
		t.Fatalf("DefExecs = %d of %d", cnt.DefExecs, cnt.StmtExecs)
	}
	if cnt.PathExecs == 0 || cnt.BlockExecs < cnt.PathExecs {
		t.Fatalf("PathExecs=%d BlockExecs=%d", cnt.PathExecs, cnt.BlockExecs)
	}
	if cnt.OrigWETBytes() != cnt.OrigNodeTSBytes()+cnt.OrigNodeValBytes()+cnt.OrigEdgeBytes() {
		t.Fatal("OrigWETBytes inconsistent")
	}
}

func TestMaxStepsAborts(t *testing.T) {
	p := ir.NewProgram(1024)
	fb := p.NewFunc("main", 0)
	s := fb.ConstReg(0)
	fb.For(ir.Imm(0), ir.Imm(1000000), ir.Imm(1), func(i ir.Reg) {
		fb.Add(s, ir.R(s), ir.R(i))
	})
	fb.Halt()
	p.MustFinalize()
	st, err := Analyze(p)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if _, err := Run(st, Options{MaxSteps: 100}); err == nil {
		t.Fatal("Run with MaxSteps=100 did not abort")
	}
}

func TestArgumentDependenceCrossesCall(t *testing.T) {
	p := ir.NewProgram(1024)
	g := p.NewFunc("id", 1)
	r := g.NewReg()
	g.Add(r, ir.R(g.Param(0)), ir.Imm(0))
	g.Ret(ir.R(r))
	fb := p.NewFunc("main", 0)
	v := fb.ConstReg(11)
	d := fb.NewReg()
	fb.Call(d, "id", ir.R(v))
	fb.Output(ir.R(d))
	fb.Halt()
	p.Entry = 1
	p.MustFinalize()
	rec := &trace.Recording{}
	res := run(t, p, nil, rec)
	if res.Outputs[0] != 11 {
		t.Fatalf("output = %v, want 11", res.Outputs)
	}
	var constInst, addInst trace.Inst
	for _, e := range rec.Events {
		switch e.Stmt.Op {
		case ir.OpConst:
			constInst = e.Inst
		case ir.OpAdd:
			addInst = e.Inst
			if len(e.DDSrcs) != 1 || e.DDSrcs[0] != constInst {
				t.Fatalf("callee add DD = %v, want [%d] (caller const)", e.DDSrcs, constInst)
			}
		case ir.OpOutput:
			if e.DDSrcs[0] != addInst {
				t.Fatalf("output DD = %v, want [%d] (callee add, through ret)", e.DDSrcs, addInst)
			}
		}
	}
}

func TestBranchOnNegativeIsTaken(t *testing.T) {
	p := ir.NewProgram(1024)
	fb := p.NewFunc("main", 0)
	c := fb.ConstReg(-5)
	out := fb.NewReg()
	fb.If(ir.R(c), func() { fb.Const(out, 1) }, func() { fb.Const(out, 0) })
	fb.Output(ir.R(out))
	fb.Halt()
	p.MustFinalize()
	res := run(t, p, nil, nil)
	if res.Outputs[0] != 1 {
		t.Fatalf("negative condition not taken: %v", res.Outputs)
	}
}

func TestMemoryAddressMasking(t *testing.T) {
	p := ir.NewProgram(1024) // 1024 words; addresses wrap
	fb := p.NewFunc("main", 0)
	fb.Store(ir.Imm(1024+5), 0, ir.Imm(77)) // wraps to address 5
	v := fb.NewReg()
	fb.Load(v, ir.Imm(5), 0)
	fb.Output(ir.R(v))
	// Negative addresses also wrap deterministically.
	fb.Store(ir.Imm(-1), 0, ir.Imm(88)) // wraps to 1023
	w := fb.NewReg()
	fb.Load(w, ir.Imm(1023), 0)
	fb.Output(ir.R(w))
	fb.Halt()
	p.MustFinalize()
	res := run(t, p, nil, nil)
	if res.Outputs[0] != 77 || res.Outputs[1] != 88 {
		t.Fatalf("outputs = %v, want [77 88]", res.Outputs)
	}
}

func TestInputSharedAcrossCalls(t *testing.T) {
	p := ir.NewProgram(1024)
	g := p.NewFunc("readone", 0)
	r := g.NewReg()
	g.Input(r)
	g.Ret(ir.R(r))
	fb := p.NewFunc("main", 0)
	a := fb.NewReg()
	b := fb.NewReg()
	fb.Input(a)
	fb.Call(b, "readone")
	fb.Output(ir.R(a))
	fb.Output(ir.R(b))
	fb.Halt()
	p.Entry = 1
	p.MustFinalize()
	res := run(t, p, []int64{10, 20}, nil)
	if res.Outputs[0] != 10 || res.Outputs[1] != 20 {
		t.Fatalf("outputs = %v, want [10 20] (one shared tape)", res.Outputs)
	}
}

func TestDeepRecursion(t *testing.T) {
	// depth(n): n == 0 ? 0 : depth(n-1)+1, n = 300.
	p := ir.NewProgram(1024)
	g := p.NewFunc("depth", 1)
	n := g.Param(0)
	c := g.NewReg()
	g.Eq(c, ir.R(n), ir.Imm(0))
	g.If(ir.R(c), func() { g.Ret(ir.Imm(0)) }, nil)
	m := g.NewReg()
	g.Sub(m, ir.R(n), ir.Imm(1))
	sub := g.NewReg()
	g.Call(sub, "depth", ir.R(m))
	r := g.NewReg()
	g.Add(r, ir.R(sub), ir.Imm(1))
	g.Ret(ir.R(r))
	fb := p.NewFunc("main", 0)
	d := fb.NewReg()
	fb.Call(d, "depth", ir.Imm(300))
	fb.Output(ir.R(d))
	fb.Halt()
	p.Entry = 1
	p.MustFinalize()
	res := run(t, p, nil, nil)
	if res.Outputs[0] != 300 {
		t.Fatalf("depth(300) = %v", res.Outputs)
	}
}

type archCounter struct{ branches, loads, stores int }

func (a *archCounter) Branch(st *ir.Stmt, taken bool) { a.branches++ }
func (a *archCounter) Access(st *ir.Stmt, addr int64, isStore bool) {
	if isStore {
		a.stores++
	} else {
		a.loads++
	}
}

func TestArchHookCounts(t *testing.T) {
	p := ir.NewProgram(1024)
	fb := p.NewFunc("main", 0)
	v := fb.NewReg()
	fb.For(ir.Imm(0), ir.Imm(5), ir.Imm(1), func(i ir.Reg) {
		fb.Store(ir.R(i), 0, ir.R(i))
		fb.Load(v, ir.R(i), 0)
	})
	fb.Halt()
	p.MustFinalize()
	st, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	ac := &archCounter{}
	if _, err := Run(st, Options{Arch: ac}); err != nil {
		t.Fatal(err)
	}
	if ac.branches != 6 || ac.loads != 5 || ac.stores != 5 {
		t.Fatalf("arch hooks: %d branches %d loads %d stores", ac.branches, ac.loads, ac.stores)
	}
}

func TestMinimalProgramHaltOnly(t *testing.T) {
	p := ir.NewProgram(1024)
	fb := p.NewFunc("main", 0)
	fb.Halt()
	p.MustFinalize()
	rec := &trace.Recording{}
	res := run(t, p, nil, rec)
	if res.Steps != 1 || len(rec.Events) != 1 || len(rec.Paths) != 1 {
		t.Fatalf("steps=%d events=%d paths=%d", res.Steps, len(rec.Events), len(rec.Paths))
	}
}

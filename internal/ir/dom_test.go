package ir

import (
	"strings"
	"testing"
)

// loopProg hand-builds: b0: br -> b1/b2; b1: jmp b0 (loop); b2: halt.
func loopProg(t *testing.T) *Program {
	t.Helper()
	p := NewProgram(1024)
	fb := p.NewFunc("main", 0)
	f := fb.Func()
	f.NumRegs = 1
	f.Blocks[0].Stmts = []*Stmt{
		{Op: OpConst, Dest: 0, A: Imm(1)},
		{Op: OpBr, Dest: NoReg, A: R(0)},
	}
	f.Blocks[0].Succs = []int{1, 2}
	f.Blocks = append(f.Blocks,
		&Block{ID: 1, Stmts: []*Stmt{{Op: OpJmp, Dest: NoReg}}, Succs: []int{0}},
		&Block{ID: 2, Stmts: []*Stmt{{Op: OpHalt, Dest: NoReg}}},
	)
	return p
}

func TestDominatorsLoop(t *testing.T) {
	p := loopProg(t)
	if err := p.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	f := p.Funcs[0]
	idom := Dominators(f)
	if idom[0] != 0 || idom[1] != 0 || idom[2] != 0 {
		t.Fatalf("idom = %v, want [0 0 0]", idom)
	}
	ipdom := PostDominators(f)
	exit := ExitBlock(f)
	// b0 is post-dominated by b2 (the only route to halt), b1 by b0.
	if ipdom[0] != 2 || ipdom[1] != 0 || ipdom[2] != exit || ipdom[exit] != exit {
		t.Fatalf("ipdom = %v (exit %d)", ipdom, exit)
	}
}

// TestValidateRejectsUnreachableBlock pins the Finalize-time rejection of a
// block that cannot be reached from the entry: before the dominator-based
// flow validation, such blocks silently produced degenerate dominance and
// control-dependence facts.
func TestValidateRejectsUnreachableBlock(t *testing.T) {
	p := NewProgram(1024)
	fb := p.NewFunc("main", 0)
	f := fb.Func()
	f.Blocks[0].Stmts = []*Stmt{{Op: OpHalt, Dest: NoReg}}
	// Block 1 is never a successor of anything.
	f.Blocks = append(f.Blocks, &Block{ID: 1, Stmts: []*Stmt{{Op: OpHalt, Dest: NoReg}}})
	err := p.Finalize()
	if err == nil {
		t.Fatal("Finalize accepted a CFG with an unreachable block")
	}
	if !strings.Contains(err.Error(), "unreachable from the entry block") {
		t.Fatalf("error = %v, want unreachable-from-entry rejection", err)
	}
}

// TestValidateRejectsNoExitPath pins the rejection of a block from which no
// Ret/Halt is reachable (its post-dominators are undefined).
func TestValidateRejectsNoExitPath(t *testing.T) {
	p := NewProgram(1024)
	fb := p.NewFunc("main", 0)
	f := fb.Func()
	f.NumRegs = 1
	f.Blocks[0].Stmts = []*Stmt{
		{Op: OpConst, Dest: 0, A: Imm(1)},
		{Op: OpBr, Dest: NoReg, A: R(0)},
	}
	f.Blocks[0].Succs = []int{1, 2}
	f.Blocks = append(f.Blocks,
		// b1 spins forever: reachable, but no path to exit.
		&Block{ID: 1, Stmts: []*Stmt{{Op: OpJmp, Dest: NoReg}}, Succs: []int{1}},
		&Block{ID: 2, Stmts: []*Stmt{{Op: OpHalt, Dest: NoReg}}},
	)
	err := p.Finalize()
	if err == nil {
		t.Fatal("Finalize accepted a block with no path to exit")
	}
	if !strings.Contains(err.Error(), "no path to a ret/halt exit") {
		t.Fatalf("error = %v, want no-path-to-exit rejection", err)
	}
}

// diamond builds: b0: br -> b1/b2; b1,b2 -> b3; b3: halt.
func diamond(t *testing.T) *Func {
	t.Helper()
	p := NewProgram(1024)
	fb := p.NewFunc("main", 0)
	c := fb.ConstReg(1)
	x := fb.NewReg()
	fb.If(R(c), func() { fb.Const(x, 1) }, func() { fb.Const(x, 2) })
	fb.Output(R(x))
	fb.Halt()
	p.MustFinalize()
	return p.Funcs[0]
}

func loopFunc(t *testing.T) *Func {
	t.Helper()
	p := NewProgram(1024)
	fb := p.NewFunc("main", 0)
	x := fb.ConstReg(5)
	c := fb.NewReg()
	fb.While(func() Operand {
		fb.Gt(c, R(x), Imm(0))
		return R(c)
	}, func() {
		fb.Sub(x, R(x), Imm(1))
	})
	fb.Halt()
	p.MustFinalize()
	return p.Funcs[0]
}

func TestDominatorsDiamond(t *testing.T) {
	f := diamond(t)
	idom := Dominators(f)
	// Entry dominates everything; the join's idom is the entry (block 0).
	join := f.Blocks[f.Blocks[0].Succs[0]].Succs[0]
	if idom[join] != 0 {
		t.Fatalf("idom(join=%d) = %d, want 0", join, idom[join])
	}
	for _, s := range f.Blocks[0].Succs {
		if idom[s] != 0 {
			t.Fatalf("idom(arm %d) = %d, want 0", s, idom[s])
		}
	}
	if idom[0] != 0 {
		t.Fatalf("idom(entry) = %d, want itself", idom[0])
	}
}

func TestPostDominatorsDiamond(t *testing.T) {
	f := diamond(t)
	ipdom := PostDominators(f)
	join := f.Blocks[f.Blocks[0].Succs[0]].Succs[0]
	// Both arms and the entry are post-dominated by the join.
	if ipdom[0] != join {
		t.Fatalf("ipdom(entry) = %d, want join %d", ipdom[0], join)
	}
	for _, s := range f.Blocks[0].Succs {
		if ipdom[s] != join {
			t.Fatalf("ipdom(arm %d) = %d, want join %d", s, ipdom[s], join)
		}
	}
}

func TestControlDependenceDiamond(t *testing.T) {
	f := diamond(t)
	cd, err := ControlDependence(f)
	if err != nil {
		t.Fatalf("ControlDependence: %v", err)
	}
	thenB, elseB := f.Blocks[0].Succs[0], f.Blocks[0].Succs[1]
	join := f.Blocks[thenB].Succs[0]
	for _, arm := range []int{thenB, elseB} {
		if len(cd.Parents[arm]) != 1 || cd.Parents[arm][0] != 0 {
			t.Fatalf("CD parents of arm %d = %v, want [0]", arm, cd.Parents[arm])
		}
	}
	if len(cd.Parents[join]) != 0 {
		t.Fatalf("join %d should not be control dependent, got %v", join, cd.Parents[join])
	}
	if len(cd.Parents[0]) != 0 {
		t.Fatalf("entry should not be control dependent, got %v", cd.Parents[0])
	}
}

func TestControlDependenceLoop(t *testing.T) {
	f := loopFunc(t)
	cd, err := ControlDependence(f)
	if err != nil {
		t.Fatalf("ControlDependence: %v", err)
	}
	// Find the loop head (branch block) and body (block jumping back to head).
	var head, body = -1, -1
	for _, b := range f.Blocks {
		if b.Term().Op == OpBr {
			head = b.ID
		}
	}
	for _, b := range f.Blocks {
		if b.Term().Op == OpJmp && b.Succs[0] == head && b.ID > head {
			body = b.ID
		}
	}
	if head < 0 || body < 0 {
		t.Fatalf("could not locate loop head/body: head=%d body=%d\n%s", head, body, f)
	}
	// The body is control dependent on the head; the head is control
	// dependent on itself (executing it again depends on its own outcome).
	want := func(node int) {
		found := false
		for _, par := range cd.Parents[node] {
			if par == head {
				found = true
			}
		}
		if !found {
			t.Fatalf("block %d CD parents = %v, want to include head %d", node, cd.Parents[node], head)
		}
	}
	want(body)
	want(head)
}

func TestNestedLoopControlDependence(t *testing.T) {
	p := NewProgram(1024)
	fb := p.NewFunc("main", 0)
	s := fb.ConstReg(0)
	fb.For(Imm(0), Imm(3), Imm(1), func(i Reg) {
		fb.For(Imm(0), Imm(3), Imm(1), func(j Reg) {
			fb.Add(s, R(s), R(j))
		})
	})
	fb.Halt()
	p.MustFinalize()
	f := p.Funcs[0]
	cd, err := ControlDependence(f)
	if err != nil {
		t.Fatalf("ControlDependence: %v", err)
	}
	// The innermost add block must be (transitively) governed by two branch
	// blocks; directly by exactly the inner loop head.
	branches := 0
	for _, b := range f.Blocks {
		if len(b.Succs) == 2 {
			branches++
		}
	}
	if branches != 2 {
		t.Fatalf("program has %d branch blocks, want 2", branches)
	}
	// Every loop body block depends on some branch.
	dep := 0
	for _, b := range f.Blocks {
		if len(cd.Parents[b.ID]) > 0 {
			dep++
		}
	}
	if dep == 0 {
		t.Fatal("no block is control dependent on anything")
	}
}

func TestInfiniteLoopRejected(t *testing.T) {
	// Hand-build: b0: jmp b0 — cannot reach exit. Finalize rejects such
	// CFGs outright (validateFlow), so control dependence never sees a
	// block with undefined post-dominators.
	p := NewProgram(1024)
	fb := p.NewFunc("spin", 0)
	fb.Func().Blocks[0].Stmts = []*Stmt{{Op: OpJmp, Dest: NoReg}}
	fb.Func().Blocks[0].Succs = []int{0}
	fb2 := p.NewFunc("main", 0)
	fb2.Halt()
	p.Entry = 1
	err := p.Finalize()
	if err == nil {
		t.Fatal("Finalize accepted a function that cannot reach exit")
	}
	if !strings.Contains(err.Error(), "no path to a ret/halt exit") {
		t.Fatalf("Finalize error = %v, want a no-path-to-exit rejection", err)
	}
}

// newTestGraph returns an edgeless n-node graph with entry 0 for driving the
// dominator solver directly.
func newTestGraph(n int) *domGraph {
	return &domGraph{n: n, succs: make([][]int, n), preds: make([][]int, n)}
}

func (g *domGraph) addEdge(u, v int) {
	g.succs[u] = append(g.succs[u], v)
	g.preds[v] = append(g.preds[v], u)
}

func TestDominatorsUnreachable(t *testing.T) {
	g := newTestGraph(3)
	g.addEdge(0, 1) // node 2 unreachable
	idom := solveDominators(g)
	if idom[2] != -1 {
		t.Fatalf("idom(unreachable) = %d, want -1", idom[2])
	}
	if idom[1] != 0 {
		t.Fatalf("idom(1) = %d, want 0", idom[1])
	}
}

func TestDominatorsIrreducible(t *testing.T) {
	// Classic irreducible shape: entry branches to 1 and 2, which jump to
	// each other. idom(1) = idom(2) = 0; CHK must converge.
	g := newTestGraph(3)
	g.addEdge(0, 1)
	g.addEdge(0, 2)
	g.addEdge(1, 2)
	g.addEdge(2, 1)
	idom := solveDominators(g)
	if idom[1] != 0 || idom[2] != 0 {
		t.Fatalf("idom = %v, want both dominated directly by entry", idom)
	}
}

func TestDominatorsDeepChain(t *testing.T) {
	const n = 500
	g := newTestGraph(n)
	for i := 0; i+1 < n; i++ {
		g.addEdge(i, i+1)
	}
	idom := solveDominators(g)
	for i := 1; i < n; i++ {
		if idom[i] != i-1 {
			t.Fatalf("idom[%d] = %d, want %d", i, idom[i], i-1)
		}
	}
}

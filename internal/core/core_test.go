package core

import (
	"testing"

	"wet/internal/interp"
	"wet/internal/ir"
	"wet/internal/stream"
	"wet/internal/trace"
)

// traceSink aliases trace.Sink for test helpers.
type traceSink = trace.Sink

// tee fans one event stream out to several sinks.
type tee struct{ sinks []traceSink }

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

// buildWET runs p and returns its WET plus the raw recording.
func buildWET(t *testing.T, p *ir.Program, inputs []int64) (*WET, *trace.Recording) {
	t.Helper()
	st, err := interp.Analyze(p)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	b := NewBuilder(st)
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
	return w, rec
}

func sumLoop(t *testing.T, iters int64) *ir.Program {
	t.Helper()
	p := ir.NewProgram(1024)
	fb := p.NewFunc("main", 0)
	s := fb.ConstReg(0)
	fb.For(ir.Imm(0), ir.Imm(iters), ir.Imm(1), func(i ir.Reg) {
		sq := fb.NewReg()
		fb.Mul(sq, ir.R(i), ir.R(i))
		fb.Add(s, ir.R(s), ir.R(sq))
		fb.Store(ir.R(i), 0, ir.R(s))
	})
	out := fb.NewReg()
	fb.Load(out, ir.Imm(iters-1), 0)
	fb.Output(ir.R(out))
	fb.Halt()
	p.MustFinalize()
	return p
}

func TestTimestampsPartitionTime(t *testing.T) {
	w, _ := buildWET(t, sumLoop(t, 20), nil)
	if w.Time != uint32(w.Raw.PathExecs) {
		t.Fatalf("Time = %d, PathExecs = %d", w.Time, w.Raw.PathExecs)
	}
	seen := map[uint32]int{}
	total := 0
	for _, n := range w.Nodes {
		if n.Execs != len(n.TS) {
			t.Fatalf("node %d Execs=%d len(TS)=%d", n.ID, n.Execs, len(n.TS))
		}
		last := uint32(0)
		for _, ts := range n.TS {
			if ts <= last {
				t.Fatalf("node %d TS not strictly increasing: %v", n.ID, n.TS)
			}
			last = ts
			if _, dup := seen[ts]; dup {
				t.Fatalf("timestamp %d appears in two nodes", ts)
			}
			seen[ts] = n.ID
			total++
		}
	}
	if uint32(total) != w.Time {
		t.Fatalf("%d timestamps across nodes, want %d", total, w.Time)
	}
	for ts := uint32(1); ts <= w.Time; ts++ {
		if _, ok := seen[ts]; !ok {
			t.Fatalf("timestamp %d missing", ts)
		}
	}
}

func TestValueReconstructionAgainstRecording(t *testing.T) {
	w, rec := buildWET(t, sumLoop(t, 15), nil)
	freeze(t, w, FreezeOptions{})
	// Replay the recording path by path and check every def value via the
	// group/pattern machinery at both tiers.
	ordOf := map[int]int{} // node -> next ordinal
	start := 0
	for _, pe := range rec.Paths {
		n := w.NodeOf(pe.Fn, pe.PathID)
		if n == nil {
			t.Fatalf("no node for (fn %d, path %d)", pe.Fn, pe.PathID)
		}
		ord := ordOf[n.ID]
		ordOf[n.ID]++
		evs := rec.Events[start:pe.Upto]
		start = pe.Upto
		for pos, ev := range evs {
			if !ev.Stmt.Op.HasDef() || ev.Stmt.Dest == ir.NoReg {
				continue
			}
			for _, tier := range []Tier{Tier1, Tier2} {
				got, err := w.Value(n, pos, ord, tier)
				if err != nil {
					t.Fatalf("Value(%d,%d,%d,%s): %v", n.ID, pos, ord, tier, err)
				}
				if got != ev.Value {
					t.Fatalf("%s Value(node %d, pos %d (%s), ord %d) = %d, want %d",
						tier, n.ID, pos, ev.Stmt, ord, got, ev.Value)
				}
			}
		}
	}
}

func TestEdgeLabelsConsistent(t *testing.T) {
	w, _ := buildWET(t, sumLoop(t, 10), nil)
	rep := freeze(t, w, FreezeOptions{})
	if rep.InferableEdges == 0 {
		t.Fatal("no local edges were inferable in a tight loop")
	}
	var totalPairs uint64
	for _, e := range w.Edges {
		if e.SharedWith >= 0 {
			rep := w.Edges[e.SharedWith]
			if rep.SharedWith >= 0 || rep.Inferable {
				t.Fatal("share representative is itself shared/inferable")
			}
			continue
		}
		if e.Inferable {
			totalPairs += uint64(e.Count)
			if e.DstOrd != nil {
				t.Fatal("inferable edge kept labels")
			}
			continue
		}
		if len(e.DstOrd) != e.Count || len(e.SrcOrd) != e.Count {
			t.Fatalf("edge label length %d/%d, count %d", len(e.DstOrd), len(e.SrcOrd), e.Count)
		}
		totalPairs += uint64(e.Count)
		// dst ordinals strictly increasing (each node execution fires an
		// edge at most once per operand).
		for i := 1; i < len(e.DstOrd); i++ {
			if e.DstOrd[i] <= e.DstOrd[i-1] {
				t.Fatalf("edge dst ordinals not increasing: %v", e.DstOrd)
			}
		}
	}
	// All dynamic dependences are accounted for across owned+inferable
	// edges plus the shared duplicates.
	var sharedPairs uint64
	for _, e := range w.Edges {
		if e.SharedWith >= 0 {
			sharedPairs += uint64(e.Count)
		}
	}
	if totalPairs+sharedPairs != w.Raw.DynDD+w.Raw.DynCD {
		t.Fatalf("edge pairs %d+%d shared, raw %d", totalPairs, sharedPairs, w.Raw.DynDD+w.Raw.DynCD)
	}
}

func TestTier2StreamsMatchTier1(t *testing.T) {
	w, _ := buildWET(t, sumLoop(t, 12), nil)
	freeze(t, w, FreezeOptions{})
	for _, n := range w.Nodes {
		got := stream.Drain(n.TSS)
		for i, ts := range n.TS {
			if got[i] != ts {
				t.Fatalf("node %d tier-2 ts[%d] = %d, want %d", n.ID, i, got[i], ts)
			}
		}
		for gi, g := range n.Groups {
			pat := stream.Drain(g.PatternS)
			for i := range g.Pattern {
				if pat[i] != g.Pattern[i] {
					t.Fatalf("node %d group %d pattern mismatch at %d", n.ID, gi, i)
				}
			}
			for mi := range g.UVals {
				uv := stream.Drain(g.UValS[mi])
				for i := range g.UVals[mi] {
					if uv[i] != g.UVals[mi][i] {
						t.Fatalf("node %d group %d uvals[%d] mismatch", n.ID, gi, mi)
					}
				}
			}
		}
	}
	for ei, e := range w.Edges {
		if e.Inferable || e.SharedWith >= 0 {
			continue
		}
		d := stream.Drain(e.DstS)
		s := stream.Drain(e.SrcS)
		for i := range e.DstOrd {
			if d[i] != e.DstOrd[i] || s[i] != e.SrcOrd[i] {
				t.Fatalf("edge %d tier-2 labels mismatch at %d", ei, i)
			}
		}
	}
}

func TestSizeReportShape(t *testing.T) {
	w, _ := buildWET(t, sumLoop(t, 200), nil)
	rep := freeze(t, w, FreezeOptions{})
	if rep.OrigTotal() == 0 {
		t.Fatal("empty orig size")
	}
	if rep.T1TS >= rep.OrigTS {
		t.Fatalf("tier-1 did not reduce timestamps: %d vs %d", rep.T1TS, rep.OrigTS)
	}
	if rep.T2TS > rep.T1TS {
		t.Fatalf("tier-2 grew timestamps: %d vs %d", rep.T2TS, rep.T1TS)
	}
	if rep.T1Total() >= rep.OrigTotal() {
		t.Fatalf("tier-1 total %d >= orig %d", rep.T1Total(), rep.OrigTotal())
	}
	if rep.T2Total() >= rep.T1Total() {
		t.Fatalf("tier-2 total %d >= tier-1 %d", rep.T2Total(), rep.T1Total())
	}
	if rep.String() == "" {
		t.Fatal("empty report string")
	}
}

func TestGroupFormationExample(t *testing.T) {
	// Mirror of the paper's §3.2 example: x is read by an input statement
	// inside the node; y = f(x) and z = g(x, y) depend only on x, so they
	// share one group whose pattern follows x's repetition (here 0,1,0,1…).
	p := ir.NewProgram(1024)
	fb := p.NewFunc("main", 0)
	x := fb.NewReg()
	y := fb.NewReg()
	z := fb.NewReg()
	c := fb.NewReg()
	fb.For(ir.Imm(0), ir.Imm(8), ir.Imm(1), func(i ir.Reg) {
		fb.Input(x) // input tape alternates 0,1
		fb.Add(y, ir.R(x), ir.Imm(10))
		fb.Mul(z, ir.R(x), ir.R(y))
		fb.Gt(c, ir.R(z), ir.Imm(100)) // also x-only
		fb.Output(ir.R(z))
	})
	fb.Halt()
	p.MustFinalize()
	w, _ := buildWET(t, p, []int64{0, 1, 0, 1, 0, 1, 0, 1})
	// Find the node containing the mul statement.
	var node *Node
	var mulPos int
	for _, n := range w.Nodes {
		for pos, s := range n.Stmts {
			if s.Op == ir.OpMul {
				node, mulPos = n, pos
			}
		}
	}
	if node == nil {
		t.Fatal("mul statement not in any node")
	}
	g := node.Groups[node.GroupOf[mulPos]]
	// x alternates between two values, so the group must have 2 unique keys
	// even though the node executed more often.
	if node.Execs < 4 {
		t.Fatalf("loop node executed %d times", node.Execs)
	}
	if g.UniqueKeys() != 2 {
		t.Fatalf("group unique keys = %d, want 2 (inputs %v, members %v)", g.UniqueKeys(), g.Inputs, g.Members)
	}
	// y and z (and the compare) must share the group (same input set {x}).
	found := map[ir.Op]bool{}
	for _, pos := range g.Members {
		found[node.Stmts[pos].Op] = true
	}
	if !found[ir.OpAdd] || !found[ir.OpMul] || !found[ir.OpGt] {
		t.Fatalf("group members %v do not cover add/mul/gt", found)
	}
}

func TestInputStatementsFormOwnInputs(t *testing.T) {
	// Loads are input statements: their values key the group.
	p := ir.NewProgram(1024)
	fb := p.NewFunc("main", 0)
	// Memory holds a repeating pattern; the loop loads it and computes.
	fb.Store(ir.Imm(0), 0, ir.Imm(5))
	fb.Store(ir.Imm(1), 0, ir.Imm(9))
	v := fb.NewReg()
	d := fb.NewReg()
	a := fb.NewReg()
	fb.For(ir.Imm(0), ir.Imm(10), ir.Imm(1), func(i ir.Reg) {
		fb.Mod(a, ir.R(i), ir.Imm(2))
		fb.Load(v, ir.R(a), 0)
		fb.Mul(d, ir.R(v), ir.Imm(3))
		fb.Output(ir.R(d))
	})
	fb.Halt()
	p.MustFinalize()
	w, _ := buildWET(t, p, nil)
	var node *Node
	var mulPos int
	for _, n := range w.Nodes {
		for pos, s := range n.Stmts {
			if s.Op == ir.OpMul && n.Execs > 2 {
				node, mulPos = n, pos
			}
		}
	}
	if node == nil {
		t.Fatal("hot mul node not found")
	}
	g := node.Groups[node.GroupOf[mulPos]]
	hasSrc := false
	for _, el := range g.Inputs {
		if el.Src >= 0 && node.Stmts[el.Src].Op == ir.OpLoad {
			hasSrc = true
		}
	}
	if !hasSrc {
		t.Fatalf("mul group inputs %v do not include the load", g.Inputs)
	}
	// The load alternates 5/9 — pattern compresses to 2 unique keys for
	// the group keyed (at least partly) on the load.
	if g.UniqueKeys() > 4 {
		t.Fatalf("unique keys = %d for an alternating load", g.UniqueKeys())
	}
}

func TestFreezeIdempotentAndDropTier1(t *testing.T) {
	w, _ := buildWET(t, sumLoop(t, 10), nil)
	r1 := freeze(t, w, FreezeOptions{})
	r2 := freeze(t, w, FreezeOptions{})
	if r1 != r2 {
		t.Fatal("Freeze not idempotent")
	}

	w2, _ := buildWET(t, sumLoop(t, 10), nil)
	freeze(t, w2, FreezeOptions{})
	w2.dropTier1()
	for _, n := range w2.Nodes {
		if n.TS != nil {
			t.Fatal("dropTier1 kept node TS")
		}
	}
	// Tier-2 reads still work.
	n := w2.Nodes[0]
	if got := stream.Drain(n.TSS); len(got) != n.Execs {
		t.Fatalf("tier-2 ts after drop: %d values, want %d", len(got), n.Execs)
	}
	// Tier-1 asks are refused typed by every cursor factory, also for a
	// group that holds no unique-value slices at all.
	refused := func(what string, ask func()) {
		t.Helper()
		defer func() {
			if ce, ok := recover().(*CapabilityError); !ok || ce.Capability != CapTier1 {
				t.Errorf("%s at tier 1 after dropTier1: want a *CapabilityError naming %s", what, CapTier1)
			}
		}()
		ask()
	}
	asked := 0
	for _, n := range w2.Nodes {
		refused("TSSeq", func() { w2.TSSeq(n, Tier1) })
		for _, g := range n.Groups {
			refused("PatternSeq", func() { w2.PatternSeq(g, Tier1) })
			for _, uvals := range [][][]uint32{g.UVals, nil} {
				g.UVals = uvals
				for i := range g.ValMembers {
					refused("UValSeq", func() { w2.UValSeq(g, i, Tier1) })
					asked++
				}
			}
		}
	}
	for _, e := range w2.Edges {
		if !e.Inferable {
			refused("EdgeLabels", func() { w2.EdgeLabels(e, Tier1) })
		}
	}
	if asked == 0 {
		t.Fatal("no value member to ask UValSeq for")
	}
}

func TestCFEdgesObserved(t *testing.T) {
	w, _ := buildWET(t, sumLoop(t, 10), nil)
	// The loop node must have itself as a CF successor (repeating path).
	var hot *Node
	for _, n := range w.Nodes {
		if hot == nil || n.Execs > hot.Execs {
			hot = n
		}
	}
	self := false
	for _, nx := range hot.CFNext {
		if nx == hot.ID {
			self = true
		}
	}
	if !self {
		t.Fatalf("hot node %d CFNext %v lacks self loop", hot.ID, hot.CFNext)
	}
	if w.FirstNode < 0 || w.LastNode < 0 {
		t.Fatal("first/last nodes unset")
	}
}

func TestStmtOccurrences(t *testing.T) {
	w, _ := buildWET(t, sumLoop(t, 10), nil)
	for id, occs := range w.StmtOcc {
		for _, ref := range occs {
			n := w.Nodes[ref.Node]
			if n.Stmts[ref.Pos].ID != id {
				t.Fatalf("StmtOcc[%d] points at %d", id, n.Stmts[ref.Pos].ID)
			}
			if n.PosOf(id) != ref.Pos {
				t.Fatalf("PosOf mismatch for stmt %d", id)
			}
		}
	}
}

// --- direct unit tests of the §3.2 group formation rules ---

// nodeFor builds a single-path WET node for a straight-line function body.
func nodeFor(t *testing.T, build func(fb *ir.FuncBuilder)) *Node {
	t.Helper()
	p := ir.NewProgram(1024)
	fb := p.NewFunc("main", 0)
	build(fb)
	fb.Halt()
	p.MustFinalize()
	st, err := interp.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	n, err := RestoreNode(st, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestGroupSubsetMerge(t *testing.T) {
	// y depends on {ext a}; z depends on {ext a, ext b}: the {a} group is a
	// proper subset and must merge into the {a,b} group (paper §3.2).
	n := nodeFor(t, func(fb *ir.FuncBuilder) {
		a := fb.NewReg() // r0: never written in the node -> external
		b := fb.NewReg() // r1: external
		y := fb.NewReg()
		z := fb.NewReg()
		_ = a
		_ = b
		fb.Add(y, ir.R(0), ir.Imm(1)) // uses ext r0
		fb.Add(z, ir.R(0), ir.R(1))   // uses ext r0 and ext r1
		fb.Output(ir.R(y))
		fb.Output(ir.R(z))
	})
	if got := len(n.Groups); got != 1 {
		for _, g := range n.Groups {
			t.Logf("group inputs=%v members=%v", g.Inputs, g.Members)
		}
		t.Fatalf("groups = %d, want 1 (subset merged)", got)
	}
	if len(n.Groups[0].Inputs) != 2 {
		t.Fatalf("merged group inputs = %v, want {r0, r1}", n.Groups[0].Inputs)
	}
}

func TestGroupDisjointInputsStaySeparate(t *testing.T) {
	// Mirrors the paper's Figure 3: {x,v}-dependent and {x,u}-dependent
	// statements form two groups (neither input set is a subset).
	n := nodeFor(t, func(fb *ir.FuncBuilder) {
		u := fb.NewReg() // r0 external
		v := fb.NewReg() // r1 external
		_ = u
		_ = v
		x := fb.NewReg()
		fb.Input(x) // input statement inside the node
		p1 := fb.NewReg()
		fb.Add(p1, ir.R(x), ir.R(0)) // {src x, ext u}
		p2 := fb.NewReg()
		fb.Mul(p2, ir.R(x), ir.R(1)) // {src x, ext v}
		fb.Output(ir.R(p1))
		fb.Output(ir.R(p2))
	})
	// The input statement is included in exactly one of the groups.
	if got := len(n.Groups); got != 2 {
		for _, g := range n.Groups {
			t.Logf("group inputs=%v members=%v", g.Inputs, g.Members)
		}
		t.Fatalf("groups = %d, want 2 (Figure 3 shape)", got)
	}
	inputGroups := 0
	for _, g := range n.Groups {
		for _, pos := range g.Members {
			if n.Stmts[pos].Op == ir.OpInput {
				inputGroups++
			}
		}
	}
	if inputGroups != 1 {
		t.Fatalf("the input statement belongs to %d groups, want exactly 1", inputGroups)
	}
}

func TestGroupConstantsMergeUpward(t *testing.T) {
	// A constant-only statement (empty input set) merges into some group
	// rather than keeping a pattern of its own.
	n := nodeFor(t, func(fb *ir.FuncBuilder) {
		ext := fb.NewReg() // r0 external
		_ = ext
		c := fb.NewReg()
		fb.Const(c, 42) // empty input set
		y := fb.NewReg()
		fb.Add(y, ir.R(0), ir.Imm(1)) // {ext r0}
		fb.Output(ir.R(y))
	})
	if got := len(n.Groups); got != 1 {
		t.Fatalf("groups = %d, want 1 (empty set merged)", got)
	}
}

func TestGroupOfCoversEveryStatement(t *testing.T) {
	n := nodeFor(t, func(fb *ir.FuncBuilder) {
		x := fb.NewReg()
		fb.Input(x)
		y := fb.NewReg()
		fb.Mul(y, ir.R(x), ir.Imm(3))
		fb.Store(ir.R(x), 0, ir.R(y))
		fb.Output(ir.R(y))
	})
	for pos := range n.Stmts {
		gi := n.GroupOf[pos]
		found := false
		for _, m := range n.Groups[gi].Members {
			if m == pos {
				found = true
			}
		}
		if !found {
			t.Fatalf("statement %d not a member of its group", pos)
		}
	}
}

func TestValidateFrozenWET(t *testing.T) {
	w, _ := buildWET(t, sumLoop(t, 40), nil)
	if err := w.Validate(); err == nil {
		t.Fatal("Validate accepted an unfrozen WET")
	}
	freeze(t, w, FreezeOptions{})
	if err := w.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	w, _ := buildWET(t, sumLoop(t, 40), nil)
	freeze(t, w, FreezeOptions{})
	// Corrupt an owned edge's count.
	for _, e := range w.Edges {
		if !e.Inferable && e.SharedWith < 0 {
			e.Count++
			break
		}
	}
	if err := w.Validate(); err == nil {
		t.Fatal("Validate missed a corrupted edge count")
	}
}

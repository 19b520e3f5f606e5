package core

import (
	"testing"

	"wet/internal/interp"
	"wet/internal/ir"
)

// freeze is FreezeErr for tests that expect it to succeed.
func freeze(t testing.TB, w *WET, opts FreezeOptions) *SizeReport {
	t.Helper()
	rep, err := w.FreezeErr(opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// repetitiveProgram computes over an alternating input, so value grouping
// collapses each hot group to two unique tuples (the paper's §3.2 win).
// sumLoop, by contrast, keys its group on the induction variable and gains
// nothing — which is why the paper's value ratios are modest.
func repetitiveProgram(t *testing.T) (*ir.Program, []int64) {
	t.Helper()
	p := ir.NewProgram(1024)
	fb := p.NewFunc("main", 0)
	x := fb.NewReg()
	y := fb.NewReg()
	z := fb.NewReg()
	iters := int64(120)
	in := make([]int64, iters)
	for i := range in {
		in[i] = int64(i % 2)
	}
	fb.For(ir.Imm(0), ir.Imm(iters), ir.Imm(1), func(i ir.Reg) {
		fb.Input(x)
		fb.Mul(y, ir.R(x), ir.Imm(17))
		fb.Add(z, ir.R(y), ir.R(x))
		fb.Output(ir.R(z))
	})
	fb.Halt()
	p.MustFinalize()
	return p, in
}

func TestNoGroupingSizes(t *testing.T) {
	pDef, inDef := repetitiveProgram(t)
	wDef, _ := buildWET(t, pDef, inDef)
	repDef := freeze(t, wDef, FreezeOptions{})
	pOff, inOff := repetitiveProgram(t)
	wOff, _ := buildWET(t, pOff, inOff)
	repOff := freeze(t, wOff, FreezeOptions{NoGrouping: true})
	if repOff.T1Vals != wOff.Raw.OrigNodeValBytes() {
		t.Fatalf("NoGrouping tier-1 vals %d, want raw %d", repOff.T1Vals, wOff.Raw.OrigNodeValBytes())
	}
	if repDef.T1Vals >= repOff.T1Vals {
		t.Fatalf("grouping did not reduce tier-1 values: %d vs %d", repDef.T1Vals, repOff.T1Vals)
	}
	// Tier-2 value queries still work after a NoGrouping freeze.
	for _, n := range wOff.Nodes {
		for pos, s := range n.Stmts {
			if s.Op.HasDef() && s.Dest != ir.NoReg && n.Execs > 0 {
				if _, err := wOff.Value(n, pos, 0, Tier2); err != nil {
					t.Fatalf("Value after NoGrouping freeze: %v", err)
				}
			}
		}
	}
}

func TestValueErrors(t *testing.T) {
	w, _ := buildWET(t, sumLoop(t, 5), nil)
	freeze(t, w, FreezeOptions{})
	n := w.Nodes[0]
	// Out-of-range ordinal.
	pos := -1
	for i, s := range n.Stmts {
		if s.Op.HasDef() && s.Dest != ir.NoReg {
			pos = i
			break
		}
	}
	if pos < 0 {
		t.Skip("node has no def statements")
	}
	if _, err := w.Value(n, pos, n.Execs, Tier1); err == nil {
		t.Fatal("Value accepted out-of-range ordinal")
	}
	// No-def statement.
	for i, s := range n.Stmts {
		if !s.Op.HasDef() {
			if _, err := w.Value(n, i, 0, Tier1); err == nil {
				t.Fatal("Value accepted a statement without def port")
			}
			break
		}
	}
}

func TestPerBlockModeBuildsWET(t *testing.T) {
	p := sumLoop(t, 30)
	st, err := interp.AnalyzeOpt(p, true)
	if err != nil {
		t.Fatal(err)
	}
	w, _, err := Build(st, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := freeze(t, w, FreezeOptions{})
	// Per-block mode: every node is a single basic block.
	for _, n := range w.Nodes {
		if len(n.Blocks) != 1 {
			t.Fatalf("per-block node %d spans %d blocks", n.ID, len(n.Blocks))
		}
	}
	if w.Raw.PathExecs != w.Raw.BlockExecs {
		t.Fatalf("per-block paths %d != block execs %d", w.Raw.PathExecs, w.Raw.BlockExecs)
	}
	// And the Ball-Larus version must need strictly fewer timestamps.
	st2, err := interp.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	w2, _, err := Build(st2, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep2 := freeze(t, w2, FreezeOptions{})
	if w2.Raw.PathExecs >= w.Raw.PathExecs {
		t.Fatalf("BL paths %d >= blocks %d", w2.Raw.PathExecs, w.Raw.PathExecs)
	}
	if rep2.T1TS >= rep.T1TS {
		t.Fatalf("BL tier-1 ts %d >= per-block %d", rep2.T1TS, rep.T1TS)
	}
}

func TestPerBlockCFTraceStillReconstructs(t *testing.T) {
	p := sumLoop(t, 15)
	st, err := interp.AnalyzeOpt(p, true)
	if err != nil {
		t.Fatal(err)
	}
	rec := &countingRecorder{}
	b := NewBuilder(st)
	b.CheckDeterminism = true
	w, _, err := buildVia(st, b, rec)
	if err != nil {
		t.Fatal(err)
	}
	freeze(t, w, FreezeOptions{})
	// Every timestamp appears exactly once.
	seen := map[uint32]bool{}
	for _, n := range w.Nodes {
		for _, ts := range n.TS {
			if seen[ts] {
				t.Fatalf("duplicate ts %d", ts)
			}
			seen[ts] = true
		}
	}
	if uint32(len(seen)) != w.Time {
		t.Fatalf("%d timestamps, want %d", len(seen), w.Time)
	}
}

// countingRecorder is a trivial extra sink for buildVia.
type countingRecorder struct{ stmts int }

func (c *countingRecorder) Stmt(inst uint64, st *ir.Stmt, value int64, ddSrcs []uint64, ddVals []int64, cdSrc uint64) {
	c.stmts++
}
func (c *countingRecorder) PathDone(fn int, pathID int64) {}

func buildVia(st *interp.Static, b *Builder, extra *countingRecorder) (*WET, *interp.Result, error) {
	res, err := interp.Run(st, interp.Options{Sink: &tee{sinks: []traceSink{extra, b}}})
	if err != nil {
		return nil, nil, err
	}
	w, err := b.Finish()
	if err != nil {
		return nil, nil, err
	}
	return w, res, nil
}

// TestAggressiveEdgesPreservesQueries freezes two WETs of the same run with
// and without the diagonal-edge reduction; every dependence resolution must
// agree, and the aggressive variant must be smaller.
func TestAggressiveEdgesPreservesQueries(t *testing.T) {
	wA, _ := buildWET(t, sumLoop(t, 60), nil)
	repA := freeze(t, wA, FreezeOptions{})
	wB, _ := buildWET(t, sumLoop(t, 60), nil)
	repB := freeze(t, wB, FreezeOptions{AggressiveEdges: true})
	if repB.DiagonalEdges == 0 {
		t.Skip("no diagonal edges in this program")
	}
	if repB.T1Edges >= repA.T1Edges || repB.T2Edges >= repA.T2Edges {
		t.Fatalf("aggressive edges not smaller: t1 %d vs %d, t2 %d vs %d",
			repB.T1Edges, repA.T1Edges, repB.T2Edges, repA.T2Edges)
	}
	// Edge labels must resolve identically (the graphs are built from the
	// same deterministic run, so edge order matches).
	if len(wA.Edges) != len(wB.Edges) {
		t.Fatalf("edge counts differ: %d vs %d", len(wA.Edges), len(wB.Edges))
	}
	for i := range wA.Edges {
		ea, eb := wA.Edges[i], wB.Edges[i]
		if ea.Inferable != eb.Inferable {
			t.Fatalf("edge %d inferable mismatch", i)
		}
		if ea.Inferable {
			continue
		}
		da, sa := wA.EdgeLabels(ea, Tier2)
		db, sb := wB.EdgeLabels(eb, Tier2)
		if da.Len() != db.Len() {
			t.Fatalf("edge %d label lengths differ", i)
		}
		for k := 0; k < da.Len(); k++ {
			if SeqAt(da, k) != SeqAt(db, k) || SeqAt(sa, k) != SeqAt(sb, k) {
				t.Fatalf("edge %d label %d differs between freezes", i, k)
			}
		}
	}
	if err := wB.Validate(); err != nil {
		t.Fatalf("aggressive WET fails validation: %v", err)
	}
}

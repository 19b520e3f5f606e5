package core

import (
	"testing"

	"wet/internal/interp"
	"wet/internal/ir"
	"wet/internal/workload"
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
	b := NewBuilder(st, FreezeOptions{})
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

// TestSizeReportAllocatesPerReport: the report walk allocates the report
// and its method census, nothing per node, group or edge, on a one-epoch
// and a segmented WET alike.
func TestSizeReportAllocatesPerReport(t *testing.T) {
	wl, err := workload.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	prog, in := wl.Build(1)
	st, err := interp.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, epochTS := range []uint32{0, 2048} {
		w, _, _, err := BuildStreaming(st, interp.Options{Inputs: in}, FreezeOptions{EpochTS: epochTS})
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(5, func() { w.sizeReport() }); allocs > 16 {
			t.Errorf("EpochTS=%d: sizeReport made %.0f allocations over %d nodes and %d edges", epochTS, allocs, len(w.Nodes), len(w.Edges))
		}
	}
}

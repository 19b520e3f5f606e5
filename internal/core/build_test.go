package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"wet/internal/interp"
	"wet/internal/ir"
	"wet/internal/trace"
	"wet/internal/workload"
)

// replayOp is one event of a hand-fed stream: a statement or a path end.
type replayOp struct {
	ev   *trace.Event // nil for a PathDone
	path trace.PathEvent
}

// recordOps records p's run as the event list a sink receives.
func recordOps(t *testing.T, st *interp.Static) []replayOp {
	t.Helper()
	rec := &trace.Recording{}
	if _, err := interp.Run(st, interp.Options{Sink: rec, MaxSteps: 1 << 22}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	var ops []replayOp
	next := 0
	for _, pe := range rec.Paths {
		for ; next < pe.Upto; next++ {
			ops = append(ops, replayOp{ev: &rec.Events[next]})
		}
		ops = append(ops, replayOp{path: pe})
	}
	return ops
}

// feed replays ops into b and finishes it, turning a panic into a test
// failure.
func feed(t *testing.T, what string, b *Builder, ops []replayOp) (err error) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("%s: the builder panicked: %v", what, p)
		}
	}()
	for _, op := range ops {
		if ev := op.ev; ev != nil {
			b.Stmt(ev.Inst, ev.Stmt, ev.Value, ev.DDSrcs, ev.DDVals, ev.CDSrc)
		} else {
			b.PathDone(op.path.Fn, op.path.PathID)
		}
	}
	_, err = b.Finish()
	return err
}

// TestBuilderRejectsMalformedEvents breaks the sink contract one way at a
// time in an interpreter-recorded event stream and requires both builders
// to refuse it with the error that names the breach, never a panic.
func TestBuilderRejectsMalformedEvents(t *testing.T) {
	st, err := interp.Analyze(sumLoop(t, 20))
	if err != nil {
		t.Fatal(err)
	}
	good := recordOps(t, st)
	// at is the k-th statement event that reads at least one operand.
	at := func(ops []replayOp, k int) int {
		for i, op := range ops {
			if op.ev != nil && len(op.ev.DDSrcs) > 0 {
				if k == 0 {
					return i
				}
				k--
			}
		}
		t.Fatalf("no statement event %d with operands", k)
		return -1
	}
	// edit returns a copy of good with the event at index i replaced by
	// what change makes of a copy of it.
	edit := func(i int, change func(ev *trace.Event)) []replayOp {
		ops := append([]replayOp(nil), good...)
		ev := *ops[i].ev
		ev.DDSrcs = append([]trace.Inst(nil), ev.DDSrcs...)
		ev.DDVals = append([]int64(nil), ev.DDVals...)
		change(&ev)
		ops[i].ev = &ev
		return ops
	}
	i := at(good, 5)
	if good[i+1].ev == nil || good[i+1].ev.Stmt.ID == good[i].ev.Stmt.ID {
		t.Fatal("the event after the edited one must be another statement of the same path")
	}
	// j is the first statement event with operands after the first path; f
	// is the last one whose first operand reads an instance of its own path
	// other than the path's first, in a path that is not its node's first
	// execution.
	j := slices.IndexFunc(good, func(op replayOp) bool {
		return op.ev != nil && len(op.ev.DDSrcs) > 0 && trace.InstTS(op.ev.Inst) > 1
	})
	f := len(good) - 1
	for ; f >= 0; f-- {
		if ev := good[f].ev; ev != nil && len(ev.DDSrcs) > 0 && trace.InstTS(ev.DDSrcs[0]) == trace.InstTS(ev.Inst) && trace.InstPos(ev.DDSrcs[0]) > 0 {
			break
		}
	}
	cases := []struct {
		name, want string
		ops        []replayOp
	}{
		{"event count differs from the node's statements", "events, node has",
			append(append([]replayOp(nil), good[:i]...), good[i+1:]...)},
		{"wrong statement at a position", "node expects",
			edit(i, func(ev *trace.Event) { ev.Stmt = good[i+1].ev.Stmt })},
		{"operand sources and values of different lengths", "operand sources",
			edit(i, func(ev *trace.Event) { ev.DDVals = ev.DDVals[1:] })},
		{"source instance not yet recorded", "not yet recorded",
			edit(i, func(ev *trace.Event) { ev.DDSrcs[0] = ev.Inst + 1000 })},
		{"source in a later path", "not yet recorded",
			edit(j, func(ev *trace.Event) { ev.DDSrcs[0] = trace.InstAt(trace.InstTS(ev.Inst)+1, 0) })},
		{"source past the end of its path", "outside its",
			edit(j, func(ev *trace.Event) { ev.DDSrcs[0] = trace.InstAt(1, 999) })},
		{"source other than the one the path fixes", "the path fixes position",
			edit(f, func(ev *trace.Event) {
				ev.DDSrcs[0] = trace.InstAt(trace.InstTS(ev.Inst), trace.InstPos(ev.DDSrcs[0])-1)
			})},
		{"operand count differs from the statement's", "operand sources, it reads",
			edit(i, func(ev *trace.Event) { ev.DDSrcs, ev.DDVals = ev.DDSrcs[1:], ev.DDVals[1:] })},
		{"events after the last PathDone", "not covered by a path",
			append(append([]replayOp(nil), good...), good[0])},
	}
	if err := feed(t, "unaltered", NewBuilder(st, FreezeOptions{}), good); err != nil {
		t.Fatalf("the recorded stream is refused: %v", err)
	}
	for _, tc := range cases {
		for _, epochTS := range []uint32{0, 4} {
			what := fmt.Sprintf("%s (EpochTS %d)", tc.name, epochTS)
			err := feed(t, what, NewBuilder(st, FreezeOptions{EpochTS: epochTS, Workers: 1}), tc.ops)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s: got %v, want an error saying %q", what, err, tc.want)
			}
		}
	}
}

// twoPhases calls two functions in turn, each running its own loop, so the
// nodes, groups and edges of the first stop firing once the second starts.
func twoPhases(t *testing.T) *ir.Program {
	t.Helper()
	p := ir.NewProgram(1024)
	main := p.NewFunc("main", 0)
	main.Call(ir.NoReg, "one")
	main.Call(ir.NoReg, "two")
	main.Halt()
	for _, name := range []string{"one", "two"} {
		fb := p.NewFunc(name, 0)
		s := fb.ConstReg(1)
		fb.For(ir.Imm(0), ir.Imm(300), ir.Imm(1), func(i ir.Reg) {
			x := fb.NewReg()
			fb.Load(x, ir.R(i), 0)
			fb.Mul(x, ir.R(x), ir.R(i))
			fb.Add(s, ir.R(s), ir.R(x))
			fb.Store(ir.R(i), 1, ir.R(s))
		})
		fb.Ret(ir.R(s))
	}
	p.MustFinalize()
	return p
}

// TestSealReleasesQuietBuffers: a seal empties every tier-1 label slice and
// keeps the buffer only of an item that fired in the sealed epoch, so after
// a seal in the second phase every first-phase node, group and edge holds a
// nil slice; Finish leaves every slice nil.
func TestSealReleasesQuietBuffers(t *testing.T) {
	prog := twoPhases(t)
	st, err := interp.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	const epochTS = 16
	b := NewBuilder(st, FreezeOptions{EpochTS: epochTS, Workers: 1})
	one := prog.FuncByName("one").Index
	s := &sealWatch{t: t, b: b, one: one, execs: map[int]int{}, counts: map[int]int{}}
	if _, err := interp.Run(st, interp.Options{Sink: s, MaxSteps: 1 << 22}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.quiet == 0 {
		t.Fatal("no seal fell in the second phase after the first had gone quiet")
	}
	w, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range w.Nodes {
		if n.TS != nil {
			t.Fatalf("node %d keeps timestamps after Finish", n.ID)
		}
		for gi, g := range n.Groups {
			if g.Pattern != nil || len(g.UVals) != len(g.ValMembers) {
				t.Fatalf("node %d group %d: pattern %v, %d value slices for %d members", n.ID, gi, g.Pattern, len(g.UVals), len(g.ValMembers))
			}
			for _, uv := range g.UVals {
				if uv != nil {
					t.Fatalf("node %d group %d keeps unique values after Finish", n.ID, gi)
				}
			}
		}
	}
	for ei, e := range w.Edges {
		if e.DstOrd != nil || e.SrcOrd != nil {
			t.Fatalf("edge %d keeps labels after Finish", ei)
		}
	}
}

// sealWatch forwards a run to a streaming builder and inspects its tier-1
// slices after every seal.
type sealWatch struct {
	t             *testing.T
	b             *Builder
	one           int         // the first phase's function
	lastOne       uint32      // the last timestamp a first-phase path took
	execs, counts map[int]int // node executions and edge counts at the last seal
	quiet         int         // seals after the first phase's last path
}

func (s *sealWatch) Stmt(inst trace.Inst, st *ir.Stmt, value int64, ddSrcs []trace.Inst, ddVals []int64, cdSrc trace.Inst) {
	s.b.Stmt(inst, st, value, ddSrcs, ddVals, cdSrc)
}

func (s *sealWatch) PathDone(fn int, pathID int64) {
	t, b := s.t, s.b
	b.PathDone(fn, pathID)
	if fn == s.one {
		s.lastOne = b.time
	}
	if b.time%b.fopts.EpochTS != 0 {
		return
	}
	quiet := b.time-s.lastOne >= b.fopts.EpochTS && s.lastOne > 0
	if quiet {
		s.quiet++
	}
	for _, n := range b.w.Nodes {
		fired := n.Execs > s.execs[n.ID]
		s.execs[n.ID] = n.Execs
		kept := func(what string, sl []uint32) {
			if len(sl) != 0 || !fired && sl != nil {
				t.Fatalf("after the seal at %d, node %d (fired %v) keeps %s of length %d, capacity %d", b.time, n.ID, fired, what, len(sl), cap(sl))
			}
			if quiet && n.Fn == s.one && sl != nil {
				t.Fatalf("after the seal at %d, first-phase node %d keeps %s", b.time, n.ID, what)
			}
		}
		kept("timestamps", n.TS)
		for _, g := range n.Groups {
			kept("a pattern", g.Pattern)
			for _, uv := range g.UVals {
				kept("unique values", uv)
			}
		}
	}
	for ei, e := range b.w.Edges {
		fired := b.ramps[ei].count > s.counts[ei]
		s.counts[ei] = b.ramps[ei].count
		for _, sl := range [][]uint32{e.DstOrd, e.SrcOrd} {
			if len(sl) != 0 || !fired && sl != nil {
				t.Fatalf("after the seal at %d, edge %d (fired %v) keeps labels of length %d, capacity %d", b.time, ei, fired, len(sl), cap(sl))
			}
			if quiet && b.w.Nodes[e.DstNode].Fn == s.one && sl != nil {
				t.Fatalf("after the seal at %d, first-phase edge %d keeps labels", b.time, ei)
			}
		}
	}
}

// TestRawCountsPerPath: the RawStats a build returns, tallied per path
// execution and per edge label, equal trace.Counting's event-by-event
// totals, streamed and in one epoch, on the concurrent variants (sync and
// shared-access counts) and on sequential workloads. The single-epoch
// builder is checked the same way wherever a test tees a Counting into it.
func TestRawCountsPerPath(t *testing.T) {
	type prog struct {
		name  string
		build func(int) (*ir.Program, []int64)
	}
	var progs []prog
	for _, w := range workload.ConcAll() {
		progs = append(progs, prog{w.Name, w.Build})
	}
	for _, name := range []string{"gcc", "mcf", "vortex"} {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog{w.Name, w.Build})
	}
	for _, pr := range progs {
		p, in := pr.build(1)
		st, err := interp.Analyze(p)
		if err != nil {
			t.Fatal(err)
		}
		cnt := trace.NewCounting(nil)
		if _, err := interp.Run(st, interp.Options{Inputs: in, Sink: cnt}); err != nil {
			t.Fatalf("%s: %v", pr.name, err)
		}
		for _, epochTS := range []uint32{0, 256} {
			w, _, _, err := BuildStreaming(st, interp.Options{Inputs: in}, FreezeOptions{EpochTS: epochTS, Workers: 1})
			if err != nil {
				t.Fatalf("%s (EpochTS %d): %v", pr.name, epochTS, err)
			}
			if w.Raw != cnt.RawStats {
				t.Fatalf("%s (EpochTS %d): raw counts %+v, Counting's %+v", pr.name, epochTS, w.Raw, cnt.RawStats)
			}
		}
	}
}

package wet_test

// Differential test of the windowed sample readers behind ValueTrace and
// AddressTrace. The reference below is the per-sample path they replaced:
// every timestamp, pattern entry, unique value and edge label read with its
// own core.SeqAt, fresh cursors per statement. Timestamps are unique across
// a run, so sorting the reference's samples is the merge it used to do.

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"wet"
	"wet/internal/core"
	"wet/internal/corpus"
	"wet/internal/faultpoint"
	"wet/internal/ir"
	"wet/internal/progen"
	"wet/internal/query"
	"wet/internal/stream"
)

// refValues is the old valReader: hoisted pattern and unique-value cursors,
// two checkpointed reads per value.
func refValues(w *core.WET, tier core.Tier, n *core.Node, pos int) func(ord int) int64 {
	g := n.Groups[n.GroupOf[pos]]
	pat, uv := w.PatternSeq(g, tier), w.UValSeq(g, g.ValMemberIndex(pos), tier)
	return func(ord int) int64 { return int64(int32(core.SeqAt(uv, int(core.SeqAt(pat, ord))))) }
}

func sortedByTS(out []wet.Sample) []wet.Sample {
	slices.SortFunc(out, func(a, b wet.Sample) int { return cmp.Compare(a.TS, b.TS) })
	return out
}

// refValueTrace is the old occCursor.next over every occurrence.
func refValueTrace(w *core.WET, tier core.Tier, stmtID int) (out []wet.Sample) {
	for _, ref := range w.StmtOcc[stmtID] {
		n := w.Nodes[ref.Node]
		ts, val := w.TSSeq(n, tier), refValues(w, tier, n, ref.Pos)
		for ord := 0; ord < n.Execs; ord++ {
			out = append(out, wet.Sample{TS: core.SeqAt(ts, ord), Value: val(ord)})
		}
	}
	return sortedByTS(out)
}

// refAddressTrace resolves every execution's address operand through its
// dependence edge, one label pair and one producer value at a time.
func refAddressTrace(w *core.WET, tier core.Tier, stmtID int) (out []wet.Sample) {
	st := w.Prog.Stmts[stmtID]
	mask := w.Prog.MemWords - 1
	for _, ref := range w.StmtOcc[stmtID] {
		n := w.Nodes[ref.Node]
		ts := w.TSSeq(n, tier)
		if !st.A.IsReg {
			for ord := 0; ord < n.Execs; ord++ {
				out = append(out, wet.Sample{TS: core.SeqAt(ts, ord), Value: (st.Off + st.A.Imm) & mask})
			}
			continue
		}
		for _, ei := range n.InEdges[ref.Pos] {
			e := w.Edges[ei]
			if e.Kind != core.DD || e.OpIdx != 0 {
				continue
			}
			dst, src := w.EdgeLabels(e, tier)
			val := refValues(w, tier, w.Nodes[e.SrcNode], e.SrcPos)
			count := n.Execs
			if dst != nil {
				count = dst.Len()
			}
			for i := 0; i < count; i++ {
				dord, sord := i, i
				if dst != nil {
					dord, sord = int(core.SeqAt(dst, i)), int(core.SeqAt(src, i))
				}
				out = append(out, wet.Sample{TS: core.SeqAt(ts, dord), Value: (st.Off + val(sord)) & mask})
			}
		}
	}
	return sortedByTS(out)
}

func hasValue(st *ir.Stmt) bool { return st.Op.HasDef() && st.Dest != wet.NoReg }
func isMemory(st *ir.Stmt) bool { return st.Op == ir.OpLoad || st.Op == ir.OpStore }

// checkAgainstReference compares every per-statement trace of tr, and the two
// whole-program passes (whose statements share one query context), with the
// reference, sample by sample.
func checkAgainstReference(t *testing.T, tr *wet.Trace) {
	t.Helper()
	w, tier := tr.WET(), tr.Tier()
	collect := func(trace func(int, func(wet.Sample)) (uint64, error), id int) []wet.Sample {
		var got []wet.Sample
		n, err := trace(id, func(s wet.Sample) { got = append(got, s) })
		if err != nil {
			t.Fatalf("stmt %d: %v", id, err)
		}
		if n != uint64(len(got)) {
			t.Fatalf("stmt %d: returned count %d, emitted %d samples", id, n, len(got))
		}
		return got
	}
	wantVals, wantAddrs := map[int][]wet.Sample{}, map[int][]wet.Sample{}
	samples := 0
	for _, st := range w.Prog.Stmts {
		if hasValue(st) {
			want := refValueTrace(w, tier, st.ID)
			if got := collect(tr.ValueTrace, st.ID); !slices.Equal(got, want) {
				t.Fatalf("ValueTrace(%d: %s): %d samples differ from the reference's %d", st.ID, st, len(got), len(want))
			}
			if st.Op == ir.OpLoad {
				wantVals[st.ID] = want
			}
			samples += len(want)
		}
		if isMemory(st) {
			want := refAddressTrace(w, tier, st.ID)
			if got := collect(tr.AddressTrace, st.ID); !slices.Equal(got, want) {
				t.Fatalf("AddressTrace(%d: %s): %d samples differ from the reference's %d", st.ID, st, len(got), len(want))
			}
			wantAddrs[st.ID] = want
			samples += len(want)
		}
	}
	if samples == 0 {
		t.Fatal("no samples compared")
	}
	for name, pass := range map[string]struct {
		run  func(*core.WET, core.Tier, func(int, query.Sample)) (uint64, error)
		want map[int][]wet.Sample
	}{"LoadValueTraces": {query.LoadValueTraces, wantVals}, "AddressTraces": {query.AddressTraces, wantAddrs}} {
		got := map[int][]wet.Sample{}
		if _, err := pass.run(w, tier, func(id int, s query.Sample) { got[id] = append(got[id], s) }); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for id, want := range pass.want {
			if !slices.Equal(got[id], want) {
				t.Fatalf("%s: statement %d differs from the reference (%d vs %d samples)", name, id, len(got[id]), len(want))
			}
		}
	}
}

func TestTracesMatchPerSampleReference(t *testing.T) {
	type prog struct {
		name string
		p    *wet.Program
		in   []int64
	}
	var progs []prog
	for _, name := range []string{"li", "gzip", "mcf"} {
		wl, err := wet.WorkloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p, in := wl.Build(1)
		progs = append(progs, prog{name, p, in})
	}
	// Generated programs whose loads and stores take their address from
	// several producers, one of them (7100) with an operand nothing defines.
	for _, seed := range []int64{7100, 7101, 7104, 7105, 7106, 7110} {
		p, in, err := progen.Gen(rand.New(rand.NewSource(seed)), progen.DefaultOpts())
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog{fmt.Sprintf("progen-%d", seed), p, in})
	}
	for _, pg := range progs {
		run := func(opts ...wet.RunOption) *wet.Trace {
			tr, _, err := wet.Run(pg.p, append(opts, wet.WithInputs(pg.in...), wet.WithMaxSteps(1<<20))...)
			if err != nil {
				t.Fatalf("%s: %v", pg.name, err)
			}
			return tr
		}
		single := run()
		data := saveBytes(t, run(wet.WithEpochTS(1<<8)))
		open := func(opts ...wet.OpenOption) *wet.Trace {
			tr, _, err := wet.Open(bytes.NewReader(data), opts...)
			if err != nil {
				t.Fatalf("%s: %v", pg.name, err)
			}
			return tr
		}
		eager := open(wet.WithTier1())
		// A segment cache far smaller than any of these traces: segments
		// evict and reload while a query is reading them.
		entry, err := corpus.New(4<<10).Add(pg.name, data)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []struct {
			name string
			tr   *wet.Trace
		}{
			{"single/tier1", single.AtTier(wet.Tier1)},
			{"single/tier2", single},
			{"reopened/tier1", eager.AtTier(wet.Tier1)},
			{"reopened/tier2", eager.AtTier(wet.Tier2)},
			{"lazy/tier2", open(wet.WithLazy())},
			{"segments/tier2", entry.Trace},
		} {
			t.Run(pg.name+"/"+v.name, func(t *testing.T) { checkAgainstReference(t, v.tr) })
		}
	}
}

// TestTracesRefuseTyped: what the windowed readers cannot read they refuse
// with the error the per-sample path returned, never a panic — a value group
// shed by a byte budget as *CapabilityError, a lazily opened stream whose
// deferred decode fails as *stream.DecodeError — from the per-statement
// queries and from the passes.
func TestTracesRefuseTyped(t *testing.T) {
	refusals := func(tr *wet.Trace, target any) (refused, answered int) {
		w := tr.WET()
		note := func(err error) {
			switch {
			case err == nil:
				answered++
			case errors.As(err, target):
				refused++
			default:
				t.Fatalf("refused with %T (%v)", err, err)
			}
		}
		for _, st := range w.Prog.Stmts {
			if hasValue(st) {
				_, err := tr.ValueTrace(st.ID, func(wet.Sample) {})
				note(err)
			}
			if isMemory(st) {
				_, err := tr.AddressTrace(st.ID, func(wet.Sample) {})
				note(err)
			}
		}
		_, err := query.LoadValueTraces(w, tr.Tier(), nil)
		note(err)
		_, err = query.AddressTraces(w, tr.Tier(), nil)
		note(err)
		return refused, answered
	}

	full := saveBytes(t, runWorkload(t, "mcf"))
	budgeted := runWorkload(t, "mcf", wet.WithByteBudget(uint64(len(full))*3/10))
	if len(budgeted.Fidelity().DroppedGroups) == 0 || budgeted.Fidelity().TSStride > 0 {
		t.Fatalf("want dropped groups and exact timestamps, got %s", budgeted.Fidelity())
	}
	if refused, answered := refusals(budgeted, new(*wet.CapabilityError)); refused == 0 || answered == 0 {
		t.Fatalf("budgeted trace: %d refusals, %d answers; want both", refused, answered)
	}

	lazy, _, err := wet.Open(bytes.NewReader(saveBytes(t, runWorkload(t, "li", wet.WithEpochTS(1<<8)))), wet.WithLazy())
	if err != nil {
		t.Fatal(err)
	}
	if err := faultpoint.Arm("stream.decode", faultpoint.Spec{Action: faultpoint.ActErr, Detail: "forged store"}); err != nil {
		t.Fatal(err)
	}
	defer faultpoint.DisarmAll()
	if refused, _ := refusals(lazy, new(*stream.DecodeError)); refused == 0 {
		t.Fatal("no query touched a forged stream")
	}
}

// TestInstanceOfTSEveryExecution asks for every execution of a dozen
// statements by its timestamp, at both tiers of a reopened multi-epoch
// trace, and for timestamps the statement did not execute at: 0, one past
// the end of the run, and one held by some other node between two of its
// executions.
func TestInstanceOfTSEveryExecution(t *testing.T) {
	data := saveBytes(t, runWorkload(t, "li", wet.WithEpochTS(1<<8)))
	opened, _, err := wet.Open(bytes.NewReader(data), wet.WithTier1())
	if err != nil {
		t.Fatal(err)
	}
	w := opened.WET()
	var stmts []int
	for id, occ := range w.StmtOcc {
		if len(occ) > 0 {
			stmts = append(stmts, id)
		}
	}
	for _, tier := range []wet.Tier{wet.Tier1, wet.Tier2} {
		tr := opened.AtTier(tier)
		found, missed := 0, 0
		for k := 0; k < 12; k++ {
			id := stmts[k*len(stmts)/12]
			at := map[uint32]wet.Instance{}
			for _, ref := range w.StmtOcc[id] {
				n := w.Nodes[ref.Node]
				ts := make([]uint32, n.Execs)
				w.TSSeq(n, tier).NextN(ts)
				for ord, v := range ts {
					at[v] = wet.Instance{Node: ref.Node, Pos: ref.Pos, Ord: ord}
				}
			}
			misses := []uint32{0, tr.Time() + 1}
			for ts, want := range at {
				got, err := tr.InstanceOfTS(id, ts)
				if err != nil || got != want {
					t.Fatalf("tier %v: InstanceOfTS(%d, %d) = %+v, %v; want %+v", tier, id, ts, got, err, want)
				}
				found++
				if _, taken := at[ts+1]; !taken {
					misses = append(misses, ts+1)
				}
			}
			for _, ts := range misses {
				if got, err := tr.InstanceOfTS(id, ts); err == nil {
					t.Fatalf("tier %v: InstanceOfTS(%d, %d) = %+v, want an error", tier, id, ts, got)
				}
				missed++
			}
		}
		if found < 1000 || missed < 24 {
			t.Fatalf("tier %v: checked only %d executions and %d misses", tier, found, missed)
		}
	}
}

// TestStmtIDOutsideProgram: the per-statement queries refuse a statement id
// the program does not have with a *StmtError; they used to index with it.
func TestStmtIDOutsideProgram(t *testing.T) {
	tr := runWorkload(t, "li")
	for _, id := range []int{-1, len(tr.WET().Prog.Stmts), 999999} {
		_, errV := tr.ValueTrace(id, nil)
		_, errA := tr.AddressTrace(id, nil)
		_, errI := tr.InstanceOfTS(id, 1)
		for _, err := range []error{errV, errA, errI} {
			var se *wet.StmtError
			if !errors.As(err, &se) || se.StmtID != id {
				t.Fatalf("statement %d: got %v, want *StmtError", id, err)
			}
		}
	}
}

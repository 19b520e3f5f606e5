package serve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"wet"
	"wet/internal/core"
	"wet/internal/faultpoint"
	"wet/internal/ir"
	"wet/internal/query"
	"wet/internal/stream"
	"wet/internal/workload"
)

// The queries below reuse their state between calls (a pooled context per
// query in internal/query). These tests check that nothing one query leaves
// behind shows in another's answer.

// reuseTrace is one trace the reuse tests query at tier 2, and the
// single-epoch build whose tier 1 gives the reference answers.
type reuseTrace struct {
	name string
	w    *core.WET // queried at tier 2
	ref  *core.WET // queried at tier 1
}

// reuseRequest is one query of a schedule; ask runs it on (w, tier).
type reuseRequest struct {
	name string
	tr   int
	ask  func(ctx context.Context, w *core.WET, tier core.Tier) (string, error)
}

// reuseTraces returns li in 256-timestamp epochs behind a 16 KiB corpus and
// gzip in one epoch, each with a single-epoch reference build.
func reuseTraces(t *testing.T) []reuseTrace {
	t.Helper()
	single := func(name string) *wet.Trace {
		wl, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prog, in := wl.Build(1)
		tr, _, err := wet.Run(prog, wet.WithInputs(in...))
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	li := testCorpus(t, 16<<10, "li").Entries()[0].Trace.WET()
	gzip := single("gzip").WET()
	return []reuseTrace{{"li", li, single("li").WET()}, {"gzip", gzip, gzip}}
}

// reuseSchedule asks, of each trace, backward slices capped at 0 and 128,
// value traces capped at 64 and control-flow windows of 256 timestamps
// capped at 64, and of li forward slices and chops capped at 0 and 128, the
// kinds wetd serves, each from a few points of the run.
func reuseSchedule(t *testing.T, trs []reuseTrace) []reuseRequest {
	t.Helper()
	var out []reuseRequest
	for ti, tr := range trs {
		w := tr.w
		var loads []int
		for _, st := range w.Prog.Stmts {
			if st.Op == ir.OpLoad && len(loads) < 6 {
				loads = append(loads, st.ID)
			}
		}
		for k := uint32(1); k <= 4; k++ {
			at := w.Time / 5 * k
			wk := query.NewWalker(tr.ref, core.Tier1)
			if err := wk.StartAt(at); err != nil {
				t.Fatal(err)
			}
			crit := query.Instance{Node: wk.Node, Pos: len(w.Nodes[wk.Node].Stmts) - 1, Ord: wk.Ord}
			for _, max := range []int{0, 128} {
				out = append(out, reuseRequest{fmt.Sprintf("%s/backward@%d/max=%d", tr.name, at, max), ti,
					func(_ context.Context, w *core.WET, tier core.Tier) (string, error) {
						res, err := query.BackwardSlice(w, tier, crit, max)
						if err != nil {
							return "", err
						}
						return fmt.Sprint(res.Edges, res.PrunedCD, res.Instances), nil
					}})
			}
			if tr.name == "li" {
				out = append(out, forwardRequests(t, tr, ti, at, crit)...)
			}
			out = append(out, reuseRequest{fmt.Sprintf("%s/cfrange@%d", tr.name, at), ti,
				func(ctx context.Context, w *core.WET, tier core.Tier) (string, error) {
					var ids []int
					n, err := query.ExtractCFRangeCtx(ctx, w, tier, at, at+255, 64, func(id int) { ids = append(ids, id) })
					return fmt.Sprint(n, ids), err
				}})
		}
		for _, stmt := range loads {
			out = append(out, reuseRequest{fmt.Sprintf("%s/valuetrace/%d", tr.name, stmt), ti,
				func(ctx context.Context, w *core.WET, tier core.Tier) (string, error) {
					var got []query.Sample
					n, err := query.ValueTraceCtx(ctx, w, tier, stmt, 64, func(s query.Sample) { got = append(got, s) })
					return fmt.Sprint(n, got), err
				}})
		}
	}
	return out
}

// forwardRequests asks forward slices from the instance a tenth of the run
// before time at, and chops from it to crit, executed at at, each capped at
// 0 and 128: on the segmented trace their readers skip the epochs sealed
// before the execution they are placed for.
func forwardRequests(t *testing.T, tr reuseTrace, ti int, at uint32, crit query.Instance) []reuseRequest {
	wk := query.NewWalker(tr.ref, core.Tier1)
	if err := wk.StartAt(at - tr.w.Time/10); err != nil {
		t.Fatal(err)
	}
	from := query.Instance{Node: wk.Node, Ord: wk.Ord}
	var out []reuseRequest
	for _, max := range []int{0, 128} {
		out = append(out, reuseRequest{fmt.Sprintf("%s/forward@%d/max=%d", tr.name, at, max), ti,
			func(_ context.Context, w *core.WET, tier core.Tier) (string, error) {
				res, err := query.ForwardSlice(w, tier, from, max)
				if err != nil {
					return "", err
				}
				return fmt.Sprint(res.Edges, res.Instances), nil
			}},
			reuseRequest{fmt.Sprintf("%s/chop@%d/max=%d", tr.name, at, max), ti,
				func(_ context.Context, w *core.WET, tier core.Tier) (string, error) {
					res, err := query.Chop(w, tier, from, crit, max)
					if err != nil {
						return "", err
					}
					return fmt.Sprint(res.Edges, res.Instances), nil
				}})
	}
	return out
}

// answers runs the schedule in the given order and returns the answers by
// request.
func answers(t testing.TB, trs []reuseTrace, sched []reuseRequest, order []int, ref bool) []string {
	out := make([]string, len(sched))
	for _, i := range order {
		r := sched[i]
		w, tier := trs[r.tr].w, core.Tier2
		if ref {
			w, tier = trs[r.tr].ref, core.Tier1
		}
		a, err := r.ask(context.Background(), w, tier)
		if err != nil {
			t.Errorf("%s: %v", r.name, err)
		}
		out[i] = a
	}
	return out
}

func inOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// sameAnswers reports the first request whose answer differs from want.
func sameAnswers(t testing.TB, what string, sched []reuseRequest, got, want []string) {
	for i := range sched {
		if got[i] != want[i] {
			t.Errorf("%s: %s answers %.200s, tier 1 %.200s", what, sched[i].name, got[i], want[i])
			return
		}
	}
}

// TestPooledStateUnobservable: backward slices, capped value traces and
// capped control-flow windows, interleaved on one goroutine over a starved
// corpus trace and a single-epoch one, answer the same in schedule order and
// in reverse, and the same as tier 1 of a single-epoch build; so do they
// after a query stopped midway, by a failing segment decode or by its
// context.
func TestPooledStateUnobservable(t *testing.T) {
	trs := reuseTraces(t)
	sched := reuseSchedule(t, trs)
	order := inOrder(len(sched))
	want := answers(t, trs, sched, order, true)
	sameAnswers(t, "schedule order", sched, answers(t, trs, sched, order, false), want)
	slices.Reverse(order)
	sameAnswers(t, "reverse order", sched, answers(t, trs, sched, order, false), want)

	li := trs[0].w
	if err := faultpoint.Arm("stream.decode", faultpoint.Spec{Action: faultpoint.ActErr, After: 4, Times: 1}); err != nil {
		t.Fatal(err)
	}
	_, err := query.BackwardSlice(li, core.Tier2, query.Instance{Node: li.LastNode, Ord: li.Nodes[li.LastNode].Execs - 1}, 0)
	faultpoint.DisarmAll()
	var de *stream.DecodeError
	if !errors.As(err, &de) {
		t.Fatalf("a slice whose fourth segment decode fails returned %v, want a *stream.DecodeError", err)
	}
	sameAnswers(t, "after a failed decode", sched, answers(t, trs, sched, order, false), want)

	ctx, cancel := context.WithCancel(context.Background())
	stmt := longLoad(t, li)
	if _, err := query.ValueTraceCtx(ctx, li, core.Tier2, stmt, -1, func(query.Sample) { cancel() }); !errors.Is(err, context.Canceled) {
		t.Fatalf("a value trace cancelled at its first sample returned %v", err)
	}
	sameAnswers(t, "after a cancelled value trace", sched, answers(t, trs, sched, inOrder(len(sched)), false), want)
}

// TestPooledQueriesConcurrent runs the schedule from four goroutines at once,
// each from its own starting point, over both traces: every answer is tier
// 1's. Under -race it checks that no two queries share pooled state.
func TestPooledQueriesConcurrent(t *testing.T) {
	trs := reuseTraces(t)
	sched := reuseSchedule(t, trs)
	want := answers(t, trs, sched, inOrder(len(sched)), true)
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			order := inOrder(len(sched))
			order = append(order[g*len(order)/4:], order[:g*len(order)/4]...)
			for range 2 {
				sameAnswers(t, fmt.Sprintf("goroutine %d", g), sched, answers(t, trs, sched, order, false), want)
			}
		}()
	}
	wg.Wait()
}

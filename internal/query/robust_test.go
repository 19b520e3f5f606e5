package query

// BatchCtx and ctx-aware extraction coverage: cooperative cancellation,
// typed errors out of injected faults and panicking jobs, and first-error
// selection in index order.

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"wet/internal/core"
	"wet/internal/faultpoint"
	"wet/internal/ir"
	"wet/internal/stream"
	"wet/internal/workload"
)

func TestBatchCtxCoversAllJobs(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 100} {
		const n = 57
		var done [n]atomic.Int32
		err := BatchCtx(context.Background(), workers, n, func(i int) error {
			done[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: BatchCtx: %v", workers, err)
		}
		for i := range done {
			if got := done[i].Load(); got != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", workers, i, got)
			}
		}
	}
	err := BatchCtx(context.Background(), 4, 0, func(i int) error {
		t.Fatal("job invoked for n=0")
		return nil
	})
	if err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

func TestBatchCtxNilContext(t *testing.T) {
	var ran atomic.Int32
	if err := BatchCtx(nil, 2, 4, func(i int) error { ran.Add(1); return nil }); err != nil {
		t.Fatalf("nil-ctx batch: %v", err)
	}
	if ran.Load() != 4 {
		t.Fatalf("nil-ctx batch ran %d of 4 jobs", ran.Load())
	}
}

func TestBatchCtxFirstErrorInIndexOrder(t *testing.T) {
	for _, workers := range []int{1, 4} {
		errAt := func(i int) error { return errors.New("job " + string(rune('0'+i))) }
		err := BatchCtx(context.Background(), workers, 8, func(i int) error {
			if i == 2 || i == 5 {
				return errAt(i)
			}
			return nil
		})
		if err == nil || err.Error() != "job 2" {
			t.Fatalf("workers=%d: BatchCtx returned %v, want the lowest-index error", workers, err)
		}
	}
}

func TestBatchCtxCancelStopsClaiming(t *testing.T) {
	cause := errors.New("operator abort")
	ctx, cancel := context.WithCancelCause(context.Background())
	var started atomic.Int32
	const n = 1000
	err := BatchCtx(ctx, 2, n, func(i int) error {
		if started.Add(1) == 4 {
			cancel(cause)
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, cause) {
		t.Fatalf("cancelled batch returned %v, want the cancellation cause", err)
	}
	if got := started.Load(); got >= n {
		t.Fatalf("cancelled batch still ran all %d jobs", n)
	}
}

func TestBatchCtxCancelBeatsJobError(t *testing.T) {
	// When the context dies, its cause wins over whatever partial job
	// errors the drain produced — cancellation is the caller's verdict.
	cause := errors.New("operator abort")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	err := BatchCtx(ctx, 4, 8, func(i int) error { return errors.New("job error") })
	if !errors.Is(err, cause) {
		t.Fatalf("dead-ctx batch returned %v, want the cause", err)
	}
}

func TestBatchCtxInjectedFault(t *testing.T) {
	if err := faultpoint.Arm("query.batch.job", faultpoint.Spec{Action: faultpoint.ActErr, After: 3}); err != nil {
		t.Fatal(err)
	}
	defer faultpoint.DisarmAll()
	err := BatchCtx(context.Background(), 4, 16, func(i int) error { return nil })
	var fe *faultpoint.Error
	if !errors.As(err, &fe) || fe.Point != "query.batch.job" {
		t.Fatalf("injected batch fault surfaced as %v, want *faultpoint.Error", err)
	}
}

func TestBatchCtxJobPanicTyped(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := BatchCtx(context.Background(), workers, 8, func(i int) error {
			if i == 1 {
				panic("job blew up")
			}
			return nil
		})
		var pe *core.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: job panic surfaced as %v, want *core.PanicError", workers, err)
		}
	}
}

func TestBatchCtxDecodeErrorPassesThrough(t *testing.T) {
	de := &stream.DecodeError{Stream: "test", Cause: errors.New("forged")}
	err := BatchCtx(context.Background(), 1, 1, func(i int) error { panic(de) })
	var got *stream.DecodeError
	if !errors.As(err, &got) || got != de {
		t.Fatalf("DecodeError panic surfaced as %v, want the original *stream.DecodeError", err)
	}
}

// TestExtractCFCtxCancelled: the long scans poll their context and return
// its cause mid-walk instead of finishing the trace.
func TestExtractCFCtxCancelled(t *testing.T) {
	w, _ := buildWET(t, mixedProgram(t), nil)
	cause := errors.New("operator abort")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	if _, err := ExtractCFCtx(ctx, w, core.Tier2, true, -1, nil); !errors.Is(err, cause) {
		t.Fatalf("cancelled ExtractCFCtx returned %v, want the cause", err)
	}
	if _, err := ExtractCFRangeCtx(ctx, w, core.Tier2, 1, w.Time, -1, nil); !errors.Is(err, cause) {
		t.Fatalf("cancelled ExtractCFRangeCtx returned %v, want the cause", err)
	}
}

// TestSampleTracesCancelledMidMerge: an uncapped value or address trace
// polls its context while it merges, so one cancelled after its first
// sample stops within ctxCheckMask+1 samples and returns the cause.
func TestSampleTracesCancelledMidMerge(t *testing.T) {
	wl, err := workload.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	p, in := wl.Build(1)
	w := sliceViews(t, p, in, 0)[1].w
	for name, trace := range map[string]func(context.Context, *core.WET, core.Tier, int, int, func(Sample)) (uint64, error){
		"value": ValueTraceCtx, "address": AddressTraceCtx,
	} {
		stmt, most := -1, uint64(0)
		for _, st := range w.Prog.Stmts {
			if n, err := trace(context.Background(), w, core.Tier2, st.ID, 0, nil); err == nil && st.Op == ir.OpLoad && n > most {
				stmt, most = st.ID, n
			}
		}
		if most <= ctxCheckMask+1 {
			t.Fatalf("%s: the longest load trace has %d samples, too few to see a poll", name, most)
		}
		cause := errors.New("client gone")
		ctx, cancel := context.WithCancelCause(context.Background())
		var got uint64
		_, err := trace(ctx, w, core.Tier2, stmt, -1, func(Sample) {
			got++
			cancel(cause)
		})
		if !errors.Is(err, cause) || got > ctxCheckMask+1 {
			t.Fatalf("%s: cancelled after its first sample, the trace emitted %d of %d and returned %v", name, got, most, err)
		}
	}
}

// TestExtractCFCtxMatchesWalker: with a live context the walk emits each
// node execution's statements in the order a Walker steps through them,
// in either direction.
func TestExtractCFCtxMatchesWalker(t *testing.T) {
	w, _ := buildWET(t, mixedProgram(t), nil)
	for _, forward := range []bool{true, false} {
		var want, got []int
		wk := NewWalker(w, core.Tier2)
		if !forward {
			wk.SeekEnd()
		}
		for wk.step(!forward) {
			stmts := w.Nodes[wk.Node].Stmts
			for i := range stmts {
				if !forward {
					i = len(stmts) - 1 - i
				}
				want = append(want, stmts[i].ID)
			}
		}
		n, err := ExtractCFCtx(context.Background(), w, core.Tier2, forward, -1, func(id int) { got = append(got, id) })
		if err != nil || n != uint64(len(want)) || !slices.Equal(got, want) {
			t.Fatalf("forward=%v: ExtractCFCtx = (%d, %v), %d statements; the walker stepped %d", forward, n, err, len(got), len(want))
		}
	}
}

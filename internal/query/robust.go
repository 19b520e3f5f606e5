package query

import (
	"context"

	"wet/internal/core"
	"wet/internal/faultpoint"
	"wet/internal/pool"
	"wet/internal/stream"
)

// fpBatchJob fires once per BatchCtx job, before the job runs: the "err"
// action fails the batch with the injected error, "panic" exercises the
// recover boundary (the batch must report it as a *core.PanicError, never
// crash the process).
var fpBatchJob = faultpoint.New("query.batch.job")

// ctxCheckMask paces the cooperative cancellation checks of the long scans
// (ExtractCFCtx and ExtractCFRangeCtx per node step, ValueTraceCtx and
// AddressTraceCtx per sample): one context poll per 4096, the same cadence
// the interpreter uses.
const ctxCheckMask = 1<<12 - 1

// BatchCtx runs n independent query jobs against one shared frozen WET from
// a bounded pool of goroutines (workers <= 0 means GOMAXPROCS, 1 runs them
// serially on the calling goroutine) and blocks until every started job has
// returned. job(i) is claimed in index order, at most once per i.
//
// This is safe with no caller synchronization because the access layer
// hands every query fresh detached cursors (core.Seq factories and the
// walker's private cursor table) and a frozen WET is never mutated by
// reads. Each job must still keep the cursors it creates to itself — that
// is, don't share a Walker or a Seq across jobs.
//
// Workers stop claiming jobs once the context dies or any job fails, and the
// first error (lowest index for ties, context.Cause on cancellation) is
// returned after all in-flight jobs finish. A job that panics with a
// *stream.DecodeError — a lazily loaded stream whose deferred decode failed
// on first touch — fails the batch with that typed error; any other panic
// surfaces as a *core.PanicError. Jobs already running when one fails are
// not interrupted (they hold no cancellation hook), so cancellation latency
// is one job.
func BatchCtx(ctx context.Context, workers, n int, job func(i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	return pool.Run(ctx, workers, n, func(_, i int) (err error) {
		defer recoverQueryPanic(&err)
		if err := fpBatchJob.Hit(); err != nil {
			return err
		}
		return job(i)
	})
}

// recoverQueryPanic converts the panics a query can legitimately hit into
// returned errors: a lazily loaded stream failing its deferred decode
// (*stream.DecodeError, kept as-is — it names the failing stream), a
// cursor factory refusing budget-dropped data (*CapabilityError, also kept
// typed), and anything else a job does (wrapped as *core.PanicError). The
// query entry points use core.RecoverTyped directly; BatchCtx uses this
// wider net because it runs arbitrary caller code.
func recoverQueryPanic(slot *error) {
	p := recover()
	if p == nil {
		return
	}
	switch t := p.(type) {
	case *stream.DecodeError:
		*slot = t
	case *CapabilityError:
		*slot = t
	default:
		*slot = &core.PanicError{Op: "query job", Value: p}
	}
}

// alive returns ctx (context.Background for nil) and, when it is already
// done, its cause: a short query may never reach its periodic poll.
func alive(ctx context.Context) (context.Context, error) {
	if ctx == nil {
		return context.Background(), nil
	}
	return ctx, context.Cause(ctx)
}

// ExtractCFCtx walks the control-flow trace in the given direction,
// invoking emit for the first limit executed statements (every one when
// limit < 0; in per-node static order, the node-level order being exact
// execution order). It returns the number of statements the whole trace
// holds — times 4 bytes, the paper's CF trace size — which a capped call
// takes as Σ Execs × len(Stmts) over the nodes instead of walking on. The
// walk polls ctx every 4096 node steps; a cancelled extraction returns the
// statements emitted so far together with context.Cause. Deferred-decode
// failures surface as a typed error, not a panic.
func ExtractCFCtx(ctx context.Context, w *core.WET, tier core.Tier, forward bool, limit int, emit func(stmtID int)) (n uint64, err error) {
	defer core.RecoverTyped(&err)
	if ctx, err = alive(ctx); err != nil {
		return 0, err
	}
	q := acquire(w, tier)
	defer q.release()
	// A negative limit converts to the largest uint64: no cap.
	if n, err = q.walkCF(ctx, forward, uint64(limit), emit); err != nil || limit < 0 {
		return n, err
	}
	n = 0
	for _, nd := range w.Nodes {
		n += uint64(nd.Execs) * uint64(len(nd.Stmts))
	}
	return n, nil
}

// ExtractCFRangeCtx walks the statement-level control flow trace between
// two timestamps (inclusive), the paper's "part of the program path starting
// at any execution point". It emits the first limit statements (every one
// when limit < 0) and returns the number of statements the range holds,
// counting those past the limit node by node. An inverted range (fromTS >
// toTS) returns a *RangeError; a range merely clipped by the ends of the
// trace is extracted as far as it exists. The walk polls ctx at the same
// 4096-node-step cadence as ExtractCFCtx.
func ExtractCFRangeCtx(ctx context.Context, w *core.WET, tier core.Tier, fromTS, toTS uint32, limit int, emit func(stmtID int)) (n uint64, err error) {
	defer core.RecoverTyped(&err)
	if fromTS > toTS {
		return 0, &RangeError{From: fromTS, To: toTS}
	}
	if ctx, err = alive(ctx); err != nil {
		return 0, err
	}
	if fromTS < 1 {
		fromTS = 1
	}
	if toTS > w.Time {
		toTS = w.Time
	}
	if fromTS > toTS {
		return 0, nil
	}
	q := acquire(w, tier)
	defer q.release()
	wk := q.walker()
	if err := wk.StartAt(fromTS); err != nil {
		return 0, err
	}
	left := uint64(limit) // a negative limit converts to the largest uint64: no cap
	if emit == nil {
		left = 0
	}
	for steps := uint64(1); ; steps++ {
		stmts := w.Nodes[wk.Node].Stmts
		if left > 0 {
			k := min(uint64(len(stmts)), left)
			for _, s := range stmts[:k] {
				emit(s.ID)
			}
			left -= k
		}
		if n += uint64(len(stmts)); steps&ctxCheckMask == 0 && ctx.Err() != nil {
			return n, context.Cause(ctx)
		}
		if wk.TS() >= toTS || !wk.Forward() {
			return n, nil
		}
	}
}

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
// (ExtractCFCtx, ExtractCFRangeCtx): one context poll per 4096 node steps,
// the same cadence the interpreter uses.
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

// ExtractCFCtx is ExtractCF with cooperative cancellation (polled every 4096
// node steps) and with deferred-decode failures surfacing as a typed error
// instead of a panic. A cancelled extraction returns the statements emitted
// so far together with context.Cause.
func ExtractCFCtx(ctx context.Context, w *core.WET, tier core.Tier, forward bool, emit func(stmtID int)) (n uint64, err error) {
	defer core.RecoverTyped(&err)
	if ctx == nil {
		ctx = context.Background()
	}
	// A context dead on entry returns immediately: short traces may never
	// reach the periodic poll.
	if ctx.Err() != nil {
		return 0, context.Cause(ctx)
	}
	var steps uint64
	n, stopped := walkCF(w, tier, forward, emit, func() bool {
		steps++
		return steps&ctxCheckMask == 0 && ctx.Err() != nil
	})
	if stopped {
		return n, context.Cause(ctx)
	}
	return n, nil
}

// ExtractCFRangeCtx is ExtractCFRange with cooperative cancellation, at the
// same 4096-node-step cadence as ExtractCFCtx.
func ExtractCFRangeCtx(ctx context.Context, w *core.WET, tier core.Tier, fromTS, toTS uint32, emit func(stmtID int)) (n uint64, err error) {
	defer core.RecoverTyped(&err)
	if ctx == nil {
		ctx = context.Background()
	}
	if fromTS > toTS {
		return 0, &RangeError{From: fromTS, To: toTS}
	}
	if ctx.Err() != nil {
		return 0, context.Cause(ctx)
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
	wk := NewWalker(w, tier)
	if err := wk.StartAt(fromTS); err != nil {
		return 0, err
	}
	var steps uint64
	for {
		for _, s := range w.Nodes[wk.Node].Stmts {
			if emit != nil {
				emit(s.ID)
			}
			n++
		}
		if steps++; steps&ctxCheckMask == 0 && ctx.Err() != nil {
			return n, context.Cause(ctx)
		}
		if wk.TS() >= toTS || !wk.Forward() {
			return n, nil
		}
	}
}

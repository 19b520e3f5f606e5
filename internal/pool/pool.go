// Package pool is the repository's one index-claiming worker pool: run n
// independent jobs from a bounded set of goroutines, claim them in index
// order, stop at the first failure, join everything, and report
// deterministically. The tier-2 freeze, tier-1 materialization, parallel
// query batches, and the container's section decode all fan out through it.
//
// The pool recovers nothing: a caller whose jobs may panic recovers inside
// the job it passes and returns the typed error.
package pool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count request for n jobs: <= 0 means
// GOMAXPROCS, and no more workers than jobs. Callers size per-worker state
// (indexed by Run's worker argument) with it.
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	return workers
}

// Run calls job(worker, i) exactly once for each i in [0, n) from
// Workers(workers, n) goroutines and blocks until every started job has
// returned. worker is in [0, Workers(workers, n)) and is never shared by two
// concurrent calls, so it can index per-worker scratch state. Jobs are
// claimed in index order; completion order is undefined. With one worker
// the jobs run in order on the calling goroutine and nothing is spawned.
//
// No job is claimed after one has failed or ctx is done. Run returns
// context.Cause(ctx) if ctx is done by the time the pool has joined —
// cancellation is the caller's verdict and beats job errors — and otherwise
// the error of the lowest-index failed job.
func Run(ctx context.Context, workers, n int, job func(worker, i int) error) error {
	workers = Workers(workers, n)
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	drain := func(worker int) {
		for !failed.Load() && ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if errs[i] = job(worker, i); errs[i] != nil {
				failed.Store(true)
			}
		}
	}
	if workers <= 1 {
		drain(0)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				drain(w)
			}(w)
		}
		wg.Wait()
	}
	if ctx.Err() != nil {
		return context.Cause(ctx)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

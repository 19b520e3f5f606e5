package query

import (
	"context"

	"wet/internal/pool"
)

// Batch runs n independent query jobs against one shared frozen WET from a
// bounded pool of goroutines and blocks until all complete. job(i) is
// invoked exactly once for each i in [0, n), from whichever worker claims
// it; claiming order is the index order, completion order is not defined.
//
// This is safe with no caller synchronization because the access layer
// hands every query fresh detached cursors (core.Seq factories and the
// walker's private cursor table) and a frozen WET is never mutated by
// reads. Each job must still keep the cursors it creates to itself —
// that is, don't share a Walker or a Seq across jobs.
//
// workers <= 0 means runtime.GOMAXPROCS(0); workers == 1 runs the jobs
// serially on the calling goroutine (useful as a baseline).
func Batch(workers, n int, job func(i int)) {
	_ = pool.Run(context.Background(), workers, n, func(_, i int) error {
		job(i)
		return nil
	})
}

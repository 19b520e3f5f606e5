package pool

// The single home of the pool contract: every index once, index-ordered
// claims, lowest-index error, cancellation beating job errors, no claim
// after a failure, and a serial path that spawns nothing.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, n := range []int{0, 1, workers - 1, 1000} {
			done := make([]atomic.Int32, n)
			inUse := make([]atomic.Bool, Workers(workers, n))
			err := Run(context.Background(), workers, n, func(worker, i int) error {
				if inUse[worker].Swap(true) {
					t.Errorf("workers=%d n=%d: worker id %d shared by two concurrent jobs", workers, n, worker)
				}
				done[i].Add(1)
				inUse[worker].Store(false)
				return nil
			})
			if err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			for i := range done {
				if got := done[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: job %d ran %d times", workers, n, i, got)
				}
			}
		}
	}
}

func TestWorkersResolves(t *testing.T) {
	if got := Workers(0, 1<<20); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0, big) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(8, 3); got != 3 {
		t.Fatalf("Workers(8, 3) = %d, want 3 (clamped to n)", got)
	}
	if got := Workers(-1, 0); got != 0 {
		t.Fatalf("Workers(-1, 0) = %d, want 0", got)
	}
}

func TestRunClaimsInIndexOrder(t *testing.T) {
	// A claim is the job call itself; with every job gated until the
	// previous index has started, an out-of-order claim would deadlock
	// (and trip the timeout) rather than pass.
	const n = 200
	var started [n]atomic.Bool
	err := Run(context.Background(), 4, n, func(_, i int) error {
		if i > 0 {
			for deadline := time.Now().Add(5 * time.Second); !started[i-1].Load(); {
				if time.Now().After(deadline) {
					return fmt.Errorf("job %d claimed before job %d", i, i-1)
				}
				runtime.Gosched()
			}
		}
		started[i].Store(true)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunLowestIndexErrorWins(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := Run(context.Background(), workers, 8, func(_, i int) error {
			if i == 2 || i == 5 {
				return fmt.Errorf("job %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "job 2" {
			t.Fatalf("workers=%d: Run returned %v, want the lowest-index error", workers, err)
		}
	}
}

func TestRunNoClaimAfterFailure(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		const n = 1000
		var claimed atomic.Int32
		boom := errors.New("boom")
		err := Run(context.Background(), workers, n, func(_, i int) error {
			claimed.Add(1)
			if i == 3 {
				return boom
			}
			time.Sleep(100 * time.Microsecond)
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: Run returned %v, want the job error", workers, err)
		}
		// Index 3 fails; at most the jobs already claimed beside it (one
		// per other worker, plus those that slipped in before the flag was
		// seen) may still run — nowhere near n.
		if got := claimed.Load(); got > 4+2*int32(workers) {
			t.Fatalf("workers=%d: %d jobs claimed after a failure at index 3", workers, got)
		}
	}
}

func TestRunCancelStopsClaiming(t *testing.T) {
	for _, workers := range []int{1, 2} {
		cause := errors.New("operator abort")
		ctx, cancel := context.WithCancelCause(context.Background())
		var started atomic.Int32
		const n = 1000
		err := Run(ctx, workers, n, func(_, i int) error {
			if started.Add(1) == 4 {
				cancel(cause)
			}
			time.Sleep(100 * time.Microsecond)
			return nil
		})
		if !errors.Is(err, cause) {
			t.Fatalf("workers=%d: cancelled Run returned %v, want the cancellation cause", workers, err)
		}
		if got := started.Load(); got > 4+int32(workers) {
			t.Fatalf("workers=%d: %d jobs started after cancellation at the 4th", workers, got)
		}
	}
}

func TestRunCancelBeatsJobError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cause := errors.New("operator abort")
		ctx, cancel := context.WithCancelCause(context.Background())
		err := Run(ctx, workers, 8, func(_, i int) error {
			cancel(cause)
			return errors.New("job error")
		})
		if !errors.Is(err, cause) {
			t.Fatalf("workers=%d: Run returned %v, want the cause", workers, err)
		}
		// Dead on entry: nothing runs at all.
		err = Run(ctx, workers, 8, func(_, i int) error {
			t.Errorf("workers=%d: job %d ran under a dead context", workers, i)
			return nil
		})
		if !errors.Is(err, cause) {
			t.Fatalf("workers=%d: dead-ctx Run returned %v, want the cause", workers, err)
		}
	}
}

func TestRunSerialSpawnsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, tc := range []struct{ workers, n int }{{1, 100}, {8, 1}, {8, 0}} {
		err := Run(context.Background(), tc.workers, tc.n, func(_, i int) error {
			if got := runtime.NumGoroutine(); got != before {
				t.Errorf("workers=%d n=%d: %d goroutines inside a serial job, want %d", tc.workers, tc.n, got, before)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

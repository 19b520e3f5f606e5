package serve

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"wet/internal/faultpoint"
)

// fpAdmit fires at admission, before a request waits for a worker: an
// injected error sheds the request with a *ShedError, exactly as a full
// queue would.
var fpAdmit = faultpoint.New("wetd.admit")

// ErrQueueFull is the shed cause when the wait queue is at capacity.
var ErrQueueFull = errors.New("queue full")

// ShedError reports a request refused at admission — load shedding, not
// failure of the work itself. HTTP maps it to 503.
type ShedError struct {
	Cause error
}

func (e *ShedError) Error() string { return fmt.Sprintf("request shed: %v", e.Cause) }

func (e *ShedError) Unwrap() error { return e.Cause }

// pool is the admission-controlled worker pool every query runs through:
// at most workers requests execute at once, at most queue more wait, and
// anything beyond that is shed immediately rather than queued without
// bound. Waiters abandon the queue when their context dies, so a deadline
// bounds queue time as well as run time.
type pool struct {
	sem     chan struct{}
	queue   int64
	waiting atomic.Int64
	active  atomic.Int64
	shed    atomic.Uint64
	done    atomic.Uint64
}

func newPool(workers, queue int) *pool {
	if workers <= 0 {
		workers = 4
	}
	if queue <= 0 {
		queue = 4 * workers
	}
	return &pool{sem: make(chan struct{}, workers), queue: int64(queue)}
}

// Do admits fn, waits for a worker slot, and runs it. Shedding (queue full
// or injected via wetd.admit) returns *ShedError; a context that is dead on
// arrival or dies while queued returns its cause. The first check matters:
// a select picks at random among ready cases, so with a slot free it would
// run an expired request half the time.
func (p *pool) Do(ctx context.Context, fn func() error) error {
	if ctx.Err() != nil {
		return context.Cause(ctx)
	}
	if err := fpAdmit.Hit(); err != nil {
		p.shed.Add(1)
		return &ShedError{Cause: err}
	}
	if p.waiting.Add(1) > p.queue {
		p.waiting.Add(-1)
		p.shed.Add(1)
		return &ShedError{Cause: ErrQueueFull}
	}
	select {
	case p.sem <- struct{}{}:
		p.waiting.Add(-1)
	case <-ctx.Done():
		p.waiting.Add(-1)
		return context.Cause(ctx)
	}
	p.active.Add(1)
	defer func() {
		p.active.Add(-1)
		p.done.Add(1)
		<-p.sem
	}()
	return fn()
}

// PoolStats snapshots the pool for /v1/stats.
type PoolStats struct {
	Workers  int    `json:"workers"`
	QueueCap int    `json:"queue_cap"`
	Waiting  int64  `json:"waiting"`
	Active   int64  `json:"active"`
	Done     uint64 `json:"done"`
	Shed     uint64 `json:"shed"`
}

func (p *pool) stats() PoolStats {
	return PoolStats{
		Workers:  cap(p.sem),
		QueueCap: int(p.queue),
		Waiting:  p.waiting.Load(),
		Active:   p.active.Load(),
		Done:     p.done.Load(),
		Shed:     p.shed.Load(),
	}
}

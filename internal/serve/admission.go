package serve

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
)

// Admission control.
//
// Requests are classified into two lanes at the door:
//
//   - cheap: closed-form evaluations (/price, /optimize) — microseconds of
//     arithmetic, bounded only to survive request floods;
//   - heavy: live simulations (/simulate) — seconds of real CPU across p
//     goroutines, bounded tightly so they can never starve the cheap lane.
//
// Each lane is a bounded worker pool: at most Workers requests execute at
// once and at most Queue more wait for a slot. A request that finds the
// queue full is shed immediately with a typed 429 and a Retry-After hint —
// degrading loudly at the door instead of queueing into timeout collapse.
// Because the lanes are independent, a saturated heavy lane leaves cheap
// throughput untouched; the saturation test pins exactly that property.

// OverloadError is the typed refusal admission control returns when a
// lane's queue is full (or a request exceeds the server's size limits, see
// Options.MaxSimRanks). It maps to HTTP 429 with a Retry-After header.
type OverloadError struct {
	// Lane is the lane that refused the work.
	Lane string
	// Reason is "queue_full" or "oversized".
	Reason string
	// RetryAfterS is the suggested back-off in whole seconds (zero for
	// oversized requests, which will never fit).
	RetryAfterS int
	// Detail is a human-readable explanation.
	Detail string
}

// Error implements error.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("serve: %s lane overloaded (%s): %s", e.Lane, e.Reason, e.Detail)
}

// lane is one bounded worker pool with a shedding queue and its own
// response cache.
type lane struct {
	name     string
	slots    chan struct{} // buffered to the worker count
	maxQueue int64
	waiting  atomic.Int64 // requests holding a queue position
	cache    *queryCache

	// avgServiceS is a coarse EWMA of recent service times in seconds,
	// only used to size the Retry-After hint.
	avgServiceS atomic.Uint64 // math.Float64bits
}

func newLane(name string, workers, queue, cacheEntries int) *lane {
	if workers < 1 {
		workers = 1
	}
	if queue < 0 {
		queue = 0
	}
	return &lane{name: name, slots: make(chan struct{}, workers), maxQueue: int64(queue), cache: newQueryCache(cacheEntries)}
}

// admit claims a worker slot, waiting in the queue if one is not free. It
// returns a release function on success; an *OverloadError when the queue
// is full; or ctx.Err() when the caller's deadline expires while queued.
func (l *lane) admit(ctx context.Context) (release func(), err error) {
	select {
	case l.slots <- struct{}{}:
		return l.release, nil
	default:
	}
	if pos := l.waiting.Add(1); pos > l.maxQueue {
		l.waiting.Add(-1)
		return nil, &OverloadError{
			Lane:        l.name,
			Reason:      "queue_full",
			RetryAfterS: l.retryAfter(),
			Detail: fmt.Sprintf("%d executing, %d queued; retry later",
				len(l.slots), l.maxQueue),
		}
	}
	defer l.waiting.Add(-1)
	select {
	case l.slots <- struct{}{}:
		return l.release, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (l *lane) release() { <-l.slots }

// queued returns the current queue depth (approximate, for metrics/tests).
func (l *lane) queued() int64 { return l.waiting.Load() }

// observeService feeds one service time into the Retry-After estimator.
func (l *lane) observeService(seconds float64) {
	const alpha = 0.2
	for {
		old := l.avgServiceS.Load()
		cur := math.Float64frombits(old)
		next := cur + alpha*(seconds-cur)
		if cur == 0 {
			next = seconds
		}
		if l.avgServiceS.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// retryAfter estimates how long until a queue position frees up: the queue
// ahead of the caller times the average service time, at least 1 second.
func (l *lane) retryAfter() int {
	avg := math.Float64frombits(l.avgServiceS.Load())
	if avg <= 0 {
		avg = 1
	}
	s := int(avg*float64(l.maxQueue+1) + 0.5)
	if s < 1 {
		s = 1
	}
	if s > 300 {
		s = 300
	}
	return s
}

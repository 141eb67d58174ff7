// Package admit is the repo's weighted admission controller: a
// weighted semaphore with a bounded FIFO wait queue and a load-aware
// Retry-After estimate. It started life inside internal/server (PR 1)
// gating explanation searches; it now also fronts the multi-backend
// router (internal/router), so the overload policy — admit up to
// capacity units, queue a bounded number of waiters, shed the rest
// with ErrSaturated — is shared by every serving tier.
package admit

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"time"

	"github.com/why-not-xai/emigre/internal/obs"
)

// ErrSaturated is returned by Controller.Acquire when both the
// concurrency slots and the wait queue are full. HTTP layers map it to
// 503 + Retry-After.
var ErrSaturated = errors.New("admit: saturated, try again later")

// Controller is a weighted semaphore with a bounded FIFO wait queue —
// an overload policy. Capacity units model concurrent work (a group
// query costs more than a single-item one); at most maxQueue requests
// may wait for units, and any request beyond that is rejected
// immediately with ErrSaturated instead of piling up.
type Controller struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	maxQueue int
	waiters  []*waiter

	// holdPerUnit is an EWMA (1/8 gain) of the observed hold time per
	// admitted unit, fed by ReleaseObserved. It is the basis of the
	// load-aware Retry-After estimate: with the gate saturated, a
	// rejected request can expect to wait roughly
	// holdPerUnit × backlog / capacity before units free up.
	holdPerUnit float64 // nanoseconds per unit; 0 until the first sample

	// Optional saturation counters (obs metrics are nil-safe, so a
	// controller built without a registry records nothing). Rejections
	// counts Acquire calls shed with ErrSaturated; Clamped counts
	// Acquire calls whose requested weight exceeded capacity and was
	// silently clamped down — the signal that capacity is undersized
	// for the workload's widest requests. Set them (if at all) before
	// the controller takes traffic.
	Rejections *obs.Counter
	Clamped    *obs.Counter
}

// Retry-After bounds: never tell a client to come back sooner than 1s
// (sub-second retries stampede) or later than 30s (the estimate is an
// EWMA, not a promise).
const (
	minRetryAfter = 1
	maxRetryAfter = 30
)

// retryAfterJitter supplies the jitter draw for RetryAfterSeconds;
// a variable so tests can pin it.
var retryAfterJitter = rand.Float64

type waiter struct {
	n     int64
	ready chan struct{}
}

// New builds a controller with the given capacity and wait queue
// bound. maxQueue 0 means no queueing: a request either gets its units
// immediately or is rejected.
func New(capacity int64, maxQueue int) *Controller {
	if capacity < 1 {
		capacity = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &Controller{capacity: capacity, maxQueue: maxQueue}
}

// clamp bounds a request's weight to [1, capacity] so every request is
// satisfiable. Acquire and ReleaseObserved apply the same clamp, so
// callers can pass the raw weight to both.
func (a *Controller) clamp(n int64) int64 {
	if n < 1 {
		n = 1
	}
	if n > a.capacity {
		n = a.capacity
	}
	return n
}

// Acquire obtains n units, waiting in FIFO order behind earlier
// requests. It returns ErrSaturated without blocking when the wait
// queue is full, and ctx.Err() when the context is done before units
// become available.
func (a *Controller) Acquire(ctx context.Context, n int64) error {
	if n > a.capacity {
		// Counted here and not in clamp: ReleaseObserved re-clamps the
		// same raw weight, which must not double-count the event.
		a.Clamped.Inc()
	}
	n = a.clamp(n)
	a.mu.Lock()
	if a.used+n <= a.capacity && len(a.waiters) == 0 {
		a.used += n
		a.mu.Unlock()
		return nil
	}
	if len(a.waiters) >= a.maxQueue {
		a.mu.Unlock()
		a.Rejections.Inc()
		return ErrSaturated
	}
	w := &waiter{n: n, ready: make(chan struct{})}
	a.waiters = append(a.waiters, w)
	a.mu.Unlock()

	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
		a.mu.Lock()
		found := false
		for i, x := range a.waiters {
			if x == w {
				a.waiters = append(a.waiters[:i], a.waiters[i+1:]...)
				found = true
				break
			}
		}
		if !found {
			// The grant raced the cancellation: units are already ours,
			// hand them back.
			a.used -= n
		}
		a.grantLocked()
		a.mu.Unlock()
		return ctx.Err()
	}
}

// ReleaseObserved returns n units, wakes queued waiters that now fit
// and, when held > 0, folds the observed hold time into the per-unit
// EWMA behind RetryAfterSeconds.
func (a *Controller) ReleaseObserved(n int64, held time.Duration) {
	n = a.clamp(n)
	a.mu.Lock()
	a.used -= n
	if a.used < 0 {
		a.used = 0 // defensive: a double release must not wedge the gate
	}
	if held > 0 {
		sample := float64(held) / float64(n)
		//lint:allow floateq zero is the exact "no samples yet" sentinel, never a computed value
		if a.holdPerUnit == 0 {
			a.holdPerUnit = sample
		} else {
			a.holdPerUnit += (sample - a.holdPerUnit) / 8
		}
	}
	a.grantLocked()
	a.mu.Unlock()
}

// RetryAfterSeconds estimates, from current load, how long a rejected
// request should wait before retrying: the EWMA hold time per unit
// times the backlog (admitted + queued units), spread over capacity,
// with ±25% jitter so shed clients do not return in lockstep. The
// result is clamped to [minRetryAfter, maxRetryAfter] seconds.
func (a *Controller) RetryAfterSeconds() int {
	a.mu.Lock()
	per := a.holdPerUnit
	backlog := a.used
	for _, w := range a.waiters {
		backlog += w.n
	}
	capacity := a.capacity
	a.mu.Unlock()
	//lint:allow floateq zero is the exact "no samples yet" sentinel, never a computed value
	if per == 0 {
		per = float64(time.Second) // no samples yet: assume 1s per unit
	}
	wait := per * float64(backlog+1) / float64(capacity)
	wait *= 0.75 + 0.5*retryAfterJitter()
	secs := int(math.Ceil(wait / float64(time.Second)))
	if secs < minRetryAfter {
		secs = minRetryAfter
	}
	if secs > maxRetryAfter {
		secs = maxRetryAfter
	}
	return secs
}

// Used returns the units currently admitted.
func (a *Controller) Used() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.used
}

// QueueLen returns the number of requests waiting for admission.
func (a *Controller) QueueLen() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return int64(len(a.waiters))
}

// grantLocked grants units to queued waiters in FIFO order, stopping at
// the first one that does not fit (no overtaking, so wide requests
// cannot starve).
func (a *Controller) grantLocked() {
	for len(a.waiters) > 0 {
		w := a.waiters[0]
		if a.used+w.n > a.capacity {
			return
		}
		a.used += w.n
		a.waiters = a.waiters[1:]
		close(w.ready)
	}
}

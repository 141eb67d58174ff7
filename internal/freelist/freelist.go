// Package freelist keeps the graph-sized scratch buffers a request
// borrows and gives back — the push engines' residual vectors, the
// explainer's Add-mode search space — so that they are reused instead of
// left to the garbage collector, whose headroom over that garbage would
// otherwise set the process's peak memory.
package freelist

import "sync"

// capacity bounds what a List holds: more buffers than drains run at
// once would only be resident memory.
const capacity = 8

// List is a bounded stack of reusable buffers, safe for concurrent use;
// the zero value is empty. Unlike a sync.Pool it keeps every buffer put
// back across garbage collections and under the race detector, so reuse
// is deterministic and the allocation pins that rely on it hold in every
// build.
type List[T any] struct {
	mu   sync.Mutex
	free []T
}

// Get pops the buffer put back last; ok is false when the list is empty.
func (l *List[T]) Get() (x T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	k := len(l.free)
	if k == 0 {
		return x, false
	}
	x = l.free[k-1]
	var zero T
	l.free[k-1], l.free = zero, l.free[:k-1]
	return x, true
}

// Put hands x back for a later Get, or drops it when the list is full.
// The caller must not touch x afterwards.
func (l *List[T]) Put(x T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.free) < capacity {
		l.free = append(l.free, x)
	}
}

// Fixture for the atomicmix analyzer: atomics are typed, so a call to a
// sync/atomic function on a plain word is reported.
package atomicmix

import (
	"sync/atomic"
)

// Stats holds a typed atomic and a plain word.
type Stats struct {
	hits atomic.Int64
	n    int64
}

// good: typed atomic methods.
func (s *Stats) Record() int64 {
	s.hits.Add(1)
	return s.hits.Load()
}

// good: the typed atomic travels by pointer.
func (s *Stats) HitCounter() *atomic.Int64 { return &s.hits }

// good: a method value as a metrics callback.
func (s *Stats) LoadFunc() func() int64 { return s.hits.Load }

// bad: a sync/atomic function makes n atomic here and plain elsewhere.
func (s *Stats) Bump() {
	atomic.AddInt64(&s.n, 1) // want "typed atomic"
}

// good: an allow directive with a reason suppresses a justified site.
func (s *Stats) Audited() int64 {
	//lint:allow atomicmix single-threaded teardown path, workers joined above
	return atomic.LoadInt64(&s.n)
}

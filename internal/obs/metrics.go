package obs

import (
	"math"
	"sort"
	"sync/atomic"

	"github.com/why-not-xai/emigre/internal/fmath"
)

// Counter is a monotonically non-decreasing metric. The zero value is
// usable; nil receivers ignore mutations so optional instrumentation
// needs no branching at call sites.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Negative and zero deltas are ignored — counters only go
// up.
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 || disabled.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram counts observations into fixed buckets. Buckets are upper
// bounds (Prometheus "le" semantics); an implicit +Inf bucket catches
// everything above the last bound. Observations are lock-free: a
// single atomic add on the bucket plus a CAS loop on the float sum.
type Histogram struct {
	upper  []float64 // ascending, +Inf excluded
	counts []atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

func newHistogram(buckets []float64) *Histogram {
	upper := make([]float64, 0, len(buckets))
	for _, b := range buckets {
		if math.IsNaN(b) {
			panic("obs: histogram bucket bound is NaN")
		}
		if math.IsInf(b, 1) {
			continue // +Inf is implicit
		}
		upper = append(upper, b)
	}
	sort.Float64s(upper)
	// Drop duplicate bounds so each rendered le value is unique.
	dedup := upper[:0]
	for i, b := range upper {
		if i == 0 || !fmath.Eq(b, upper[i-1]) {
			dedup = append(dedup, b)
		}
	}
	upper = dedup
	return &Histogram{
		upper:  upper,
		counts: make([]atomic.Int64, len(upper)+1), // +1: the +Inf bucket
	}
}

// Observe records one sample. NaN samples are dropped (they would
// poison the sum and fit no bucket).
func (h *Histogram) Observe(v float64) {
	if h == nil || disabled.Load() || math.IsNaN(v) {
		return
	}
	// SearchFloat64s returns the first i with upper[i] >= v — exactly
	// the le contract; i == len(upper) lands in the +Inf bucket.
	h.counts[sort.SearchFloat64s(h.upper, v)].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// snapshot returns cumulative bucket counts (one per upper bound plus
// the +Inf bucket), the total count and the sum. Counts and sum are
// loaded independently, so a snapshot taken under concurrent writes
// may be torn by a few in-flight observations — the standard contract
// for atomics-based collectors.
func (h *Histogram) snapshot() (cum []int64, count int64, sum float64) {
	cum = make([]int64, len(h.counts))
	var running int64
	for i := range h.counts {
		running += h.counts[i].Load()
		cum[i] = running
	}
	return cum, running, h.Sum()
}

// DefBuckets is the default latency bucket layout in seconds, spanning
// 0.5ms to 10s — the range an explanation request realistically covers.
func DefBuckets() []float64 {
	return []float64{.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}
}

// ExpBuckets returns n exponentially spaced bucket bounds starting at
// start, each factor times the previous. It panics on a non-positive
// start, a factor not greater than one, or n < 1.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets requires start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

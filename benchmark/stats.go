package main

import (
	"math"
	"slices"
	"time"
)

// percentile returns the q-quantile (0 < q <= 1) of xs by nearest rank.
// Callers rank a failed op as +Inf, so a percentile that reaches into
// the failures reads +Inf rather than the latency of a luckier op.
// xs is sorted in place; an empty xs has no percentile (NaN).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	return xs[max(rank, 1)-1]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// midMean is the median smoothed: the mean of the sorted values from
// the 35th to the 65th percentile rank, a 35 % trimmed mean. One run of
// an explain workload has some seventy latencies spanning three orders
// of magnitude, thinly spread around their middle, so the single middle
// value moves by a tenth with the pairing of requests alone; the band
// averages twenty of them. Like percentile it reads +Inf once it
// reaches into the failures. xs is sorted in place.
func midMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	lo := max(int(math.Ceil(0.35*float64(len(xs)))), 1)
	hi := int(math.Ceil(0.65 * float64(len(xs))))
	return mean(xs[lo-1 : hi])
}

// latenciesMs lists the latency of every op of the given kind in
// milliseconds, +Inf for failed ones.
func latenciesMs(ops []op, results []result, kind string) []float64 {
	var xs []float64
	for i, r := range results {
		if ops[i].Kind != kind {
			continue
		}
		if r.outcome.failed() {
			xs = append(xs, math.Inf(1))
		} else {
			xs = append(xs, ms(r.latency))
		}
	}
	return xs
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, 0 when b is 0: the value of a share whose base is empty.
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

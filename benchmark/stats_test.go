package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileRanksFailuresLast(t *testing.T) {
	lat := func(failed int) []float64 {
		xs := make([]float64, 20)
		for i := range xs {
			xs[i] = float64(20 - i) // unsorted on purpose
		}
		for i := 0; i < failed; i++ {
			xs[i] = math.Inf(1)
		}
		return xs
	}
	// Nearest rank: p95 of 20 samples is the 19th smallest.
	if got := percentile(lat(0), 0.95); got != 19 {
		t.Errorf("p95 of 1..20 = %v, want 19", got)
	}
	if got := percentile(lat(1), 0.95); math.IsInf(got, 1) {
		t.Errorf("one failure in 20 must not reach p95, got %v", got)
	}
	// Two failures occupy ranks 19 and 20: p95 has no latency to report.
	if got := percentile(lat(2), 0.95); !math.IsInf(got, 1) {
		t.Errorf("p95 with 2 failures in 20 = %v, want +Inf", got)
	}
	if got := percentile(lat(2), 0.50); got != 10 {
		t.Errorf("p50 with 2 failures in 20 = %v, want 10", got)
	}
	// The smoothed median of 20 samples averages ranks 7 to 13.
	if got := midMean(lat(0)); got != 10 {
		t.Errorf("midMean of 1..20 = %v, want 10", got)
	}
	if got := midMean(lat(7)); got != 10 {
		t.Errorf("seven failures in 20 must not reach the middle band, got %v", got)
	}
	if got := midMean(lat(8)); !math.IsInf(got, 1) {
		t.Errorf("midMean with 8 failures in 20 = %v, want +Inf", got)
	}
	if got := midMean(nil); !math.IsNaN(got) {
		t.Errorf("midMean of nothing = %v, want NaN", got)
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile of nothing = %v, want NaN", got)
	}
	if got := percentile([]float64{7}, 0.01); got != 7 {
		t.Errorf("p1 of one sample = %v, want it", got)
	}
}

func TestLatenciesMsMarksFailuresAndFiltersKind(t *testing.T) {
	ops := []op{{Kind: opExplain}, {Kind: opRecommend}, {Kind: opExplain}, {Kind: opExplain}}
	results := []result{
		{outcome: outAnswered, latency: 3 * time.Millisecond},
		{outcome: outAnswered, latency: time.Millisecond},
		{outcome: outNoExplanation, latency: 5 * time.Millisecond},
		{outcome: outShed, latency: time.Millisecond},
	}
	got := latenciesMs(ops, results, opExplain)
	if len(got) != 3 || got[0] != 3 || got[1] != 5 || !math.IsInf(got[2], 1) {
		t.Errorf("latenciesMs = %v, want [3 5 +Inf]", got)
	}
}

func TestResultLineHasNoInfinity(t *testing.T) {
	rep := &report{attempted: 1, metrics: []metric{{"primary_p95_ms", "ms", math.Inf(1), 1}}}
	if line := rep.resultLine(); line != `{"correct":true,"attempted":1,"failed":0,"metrics":{"primary_p95_ms":{"value":1.7976931348623157e+308,"unit":"ms"}}}` {
		t.Errorf("result line = %s", line)
	}
}

package load

import (
	"encoding/json"
	"math"
	"testing"

	"github.com/why-not-xai/emigre/internal/fmath"
)

// TestBuildReportDegenerateWindows pins the rate-math guard: an empty
// or instant session must produce a report of exact zeros that still
// marshals to JSON. Pre-fix, a NaN window made json.Marshal fail
// outright and a sub-measurable window manufactured absurd QPS.
func TestBuildReportDegenerateWindows(t *testing.T) {
	recs := []Record{
		{Request: Request{Op: "explain"}, Status: 200, LatencyUS: 1000},
		{Request: Request{Op: "explain"}, Status: 200, LatencyUS: 2000},
	}
	cases := []struct {
		name      string
		recs      []Record
		durationS float64
	}{
		{"empty records, zero window", nil, 0},
		{"zero window", recs, 0},
		{"negative window", recs, -3},
		{"NaN window", recs, math.NaN()},
		{"+Inf window", recs, math.Inf(1)},
		{"sub-measurable window", recs, 1e-9},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := BuildReport(tc.recs, nil, nil, tc.durationS)
			if !fmath.Eq(rep.DurationS, 0) {
				t.Fatalf("DurationS = %v, want exact 0", rep.DurationS)
			}
			if !fmath.Eq(rep.QPS, 0) {
				t.Fatalf("QPS = %v, want exact 0", rep.QPS)
			}
			if math.IsNaN(rep.QPS) || math.IsInf(rep.QPS, 0) {
				t.Fatalf("QPS = %v, want finite", rep.QPS)
			}
			raw, err := json.Marshal(rep)
			if err != nil {
				t.Fatalf("report does not marshal: %v", err)
			}
			var back Report
			if err := json.Unmarshal(raw, &back); err != nil {
				t.Fatalf("report does not round-trip: %v", err)
			}
		})
	}
}

// TestBuildReportMeasurableWindowUnchanged: the guard must not touch
// legitimate windows — a 10s run keeps its real QPS.
func TestBuildReportMeasurableWindowUnchanged(t *testing.T) {
	recs := []Record{
		{Request: Request{Op: "explain"}, Status: 200, LatencyUS: 1000},
		{Request: Request{Op: "explain"}, Status: 200, LatencyUS: 2000},
	}
	rep := BuildReport(recs, nil, nil, 10)
	if !fmath.Eq(rep.QPS, 0.2) {
		t.Fatalf("QPS = %v, want 0.2", rep.QPS)
	}
}

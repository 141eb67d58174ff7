package load

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"github.com/why-not-xai/emigre/internal/load/benchfmt"
	"github.com/why-not-xai/emigre/internal/obs"
)

// ReportSchema versions the JSON report document.
const ReportSchema = "emigre/loadreport/v1"

// minMeasurableS is the smallest wall-clock window a rate can be
// computed from: latencies are recorded in whole microseconds, so a
// window under a millisecond holds no meaningful throughput signal —
// dividing by it manufactures absurd QPS from scheduler noise.
const minMeasurableS = 1e-3

// sanitizeDurationS maps a non-finite, negative, or sub-measurable
// wall-clock window to exactly 0, so every rate derived from it is an
// exact 0 instead of +Inf/NaN (which json.Marshal rejects outright) or
// a nonsense rate from dividing by nanoseconds. Replaying an empty or
// instant session hits this path.
func sanitizeDurationS(d float64) float64 {
	if math.IsNaN(d) || math.IsInf(d, 0) || d < minMeasurableS {
		return 0
	}
	return d
}

// Percentiles summarizes a latency distribution in microseconds. Exact
// (not estimated): computed from the full per-request sample set.
type Percentiles struct {
	P50  int64 `json:"p50_us"`
	P95  int64 `json:"p95_us"`
	P99  int64 `json:"p99_us"`
	Max  int64 `json:"max_us"`
	Mean int64 `json:"mean_us"`
}

// EndpointReport is the per-op slice of a load report.
type EndpointReport struct {
	Count  int `json:"count"`
	Errors int `json:"errors"`
	// Status counts outcomes by HTTP status ("0" = no response).
	Status  map[string]int `json:"status"`
	Rate503 float64        `json:"rate_503"`
	Latency Percentiles    `json:"latency"`
	// Degraded histograms responses by degradation level ("" = full
	// fidelity responses are not counted here).
	Degraded map[string]int `json:"degraded,omitempty"`
	// Attempts sums client HTTP attempts (retries included).
	Attempts int64 `json:"attempts"`
	// Cache tallies summed over the slice.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
}

// Report is one run's latency/SLO summary.
type Report struct {
	Schema    string  `json:"schema"`
	DurationS float64 `json:"duration_s"`
	Requests  int     `json:"requests"`
	QPS       float64 `json:"qps"`
	ErrorRate float64 `json:"error_rate"`
	Rate503   float64 `json:"rate_503"`
	// Endpoints slices the run per op; Total aggregates all ops.
	Endpoints map[string]*EndpointReport `json:"endpoints"`
	Total     *EndpointReport            `json:"total"`
	// MetricsDelta holds nonzero counter-family deltas between the
	// before and after /metrics scrapes (admission rejections, degraded
	// responses, cache traffic, ...). Nil when scrapes were unavailable.
	MetricsDelta map[string]float64 `json:"metrics_delta,omitempty"`
}

// percentile returns the exact p-quantile of sorted (nearest-rank).
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p*float64(len(sorted)) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func summarize(recs []*Record) *EndpointReport {
	ep := &EndpointReport{Status: map[string]int{}}
	lat := make([]int64, 0, len(recs))
	var sum int64
	var n503 int
	for _, r := range recs {
		ep.Count++
		ep.Status[strconv.Itoa(r.Status)]++
		if r.Status != 200 {
			ep.Errors++
		}
		if r.Status == 503 {
			n503++
		}
		if r.Degraded {
			if ep.Degraded == nil {
				ep.Degraded = map[string]int{}
			}
			ep.Degraded[r.DegradedLevel]++
		}
		ep.Attempts += int64(r.Attempts)
		ep.CacheHits += r.CacheHits
		ep.CacheMisses += r.CacheMisses
		lat = append(lat, r.LatencyUS)
		sum += r.LatencyUS
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	ep.Latency = Percentiles{
		P50: percentile(lat, 0.50),
		P95: percentile(lat, 0.95),
		P99: percentile(lat, 0.99),
	}
	if len(lat) > 0 {
		ep.Latency.Max = lat[len(lat)-1]
		ep.Latency.Mean = sum / int64(len(lat))
	}
	if ep.Count > 0 {
		ep.Rate503 = float64(n503) / float64(ep.Count)
	}
	return ep
}

// BuildReport folds per-request records and optional before/after
// /metrics scrapes into a Report. durationS is the run's wall time.
func BuildReport(recs []Record, before, after *obs.Exposition, durationS float64) *Report {
	durationS = sanitizeDurationS(durationS)
	rep := &Report{
		Schema:    ReportSchema,
		DurationS: durationS,
		Requests:  len(recs),
		Endpoints: map[string]*EndpointReport{},
	}
	byOp := map[string][]*Record{}
	all := make([]*Record, len(recs))
	for i := range recs {
		all[i] = &recs[i]
		byOp[recs[i].Op] = append(byOp[recs[i].Op], &recs[i])
	}
	for op, rs := range byOp {
		rep.Endpoints[op] = summarize(rs)
	}
	rep.Total = summarize(all)
	if durationS > 0 {
		rep.QPS = float64(len(recs)) / durationS
	}
	if rep.Total.Count > 0 {
		rep.ErrorRate = float64(rep.Total.Errors) / float64(rep.Total.Count)
	}
	rep.Rate503 = rep.Total.Rate503
	if after != nil {
		rep.MetricsDelta = obs.CounterDeltas(before, after)
	}
	return rep
}

// ToBenchFmt renders the report in the normalized benchfmt schema, one
// result per endpoint plus a "loadgen/total" aggregate — the shape the
// perf-regression gate diffs.
func (r *Report) ToBenchFmt(description string) *benchfmt.File {
	f := &benchfmt.File{Schema: benchfmt.Schema, Description: description}
	emit := func(name string, ep *EndpointReport) {
		if ep == nil || ep.Count == 0 {
			return
		}
		m := map[string]float64{
			"p50_us":     float64(ep.Latency.P50),
			"p95_us":     float64(ep.Latency.P95),
			"p99_us":     float64(ep.Latency.P99),
			"mean_us":    float64(ep.Latency.Mean),
			"ns/op":      float64(ep.Latency.Mean) * 1e3,
			"error_rate": float64(ep.Errors) / float64(ep.Count),
			"rate_503":   ep.Rate503,
		}
		// qps is always emitted, as an exact 0 when the window was too
		// small to measure: omitting it would make benchfmt.Diff skip
		// the metric and silently wave a broken run through the gate.
		m["qps"] = 0
		if d := sanitizeDurationS(r.DurationS); d > 0 {
			m["qps"] = float64(ep.Count) / d
		}
		f.Results = append(f.Results, benchfmt.Result{
			Name:       name,
			Iterations: int64(ep.Count),
			Metrics:    m,
		})
	}
	ops := make([]string, 0, len(r.Endpoints))
	for op := range r.Endpoints {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		emit("loadgen/"+op, r.Endpoints[op])
	}
	emit("loadgen/total", r.Total)
	return f
}

// Render writes the report as human-readable text.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d requests in %.1fs (%.1f req/s), %.2f%% errors, %.2f%% 503s\n",
		r.Requests, r.DurationS, r.QPS, 100*r.ErrorRate, 100*r.Rate503)
	ops := make([]string, 0, len(r.Endpoints))
	for op := range r.Endpoints {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		ep := r.Endpoints[op]
		fmt.Fprintf(&b, "  %-10s n=%-6d p50=%s p95=%s p99=%s max=%s err=%d",
			op, ep.Count,
			us(ep.Latency.P50), us(ep.Latency.P95), us(ep.Latency.P99), us(ep.Latency.Max),
			ep.Errors)
		if len(ep.Degraded) > 0 {
			levels := make([]string, 0, len(ep.Degraded))
			for l := range ep.Degraded {
				levels = append(levels, l)
			}
			sort.Strings(levels)
			parts := make([]string, len(levels))
			for i, l := range levels {
				parts[i] = fmt.Sprintf("%s:%d", l, ep.Degraded[l])
			}
			fmt.Fprintf(&b, " degraded=[%s]", strings.Join(parts, " "))
		}
		b.WriteByte('\n')
	}
	if len(r.MetricsDelta) > 0 {
		names := make([]string, 0, len(r.MetricsDelta))
		for n := range r.MetricsDelta {
			names = append(names, n)
		}
		sort.Strings(names)
		b.WriteString("  metrics deltas:\n")
		for _, n := range names {
			fmt.Fprintf(&b, "    %-45s %+g\n", n, r.MetricsDelta[n])
		}
	}
	return b.String()
}

// us renders a microsecond count as a human duration.
func us(v int64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.2fs", float64(v)/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fms", float64(v)/1e3)
	default:
		return fmt.Sprintf("%dus", v)
	}
}

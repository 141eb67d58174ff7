package server

import (
	"bytes"
	"encoding/json"
	"log"
	"net/http"
	"strings"
	"testing"

	emigre "github.com/why-not-xai/emigre"
)

// TestExplainPoolStatsSurfaced checks the observability contract of the
// parallel CHECK pipeline: with -explain-workers > 1, GET /stats grows
// an explain_pool block whose committed-check gauge matches the
// explanation's own check count.
func TestExplainPoolStatsSurfaced(t *testing.T) {
	srv, _ := newTestServerCfg(t, func(c *Config) { c.ExplainWorkers = 4 })
	h := srv.Handler()

	body := map[string]any{"user": "Paul", "wni": "Harry Potter", "mode": "remove", "method": "powerset"}
	rec := do(t, h, "POST", "/explain", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("explain: %d: %s", rec.Code, rec.Body.String())
	}
	var expl struct {
		Checks int `json:"checks"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &expl); err != nil {
		t.Fatal(err)
	}

	stats := do(t, h, "GET", "/stats", nil)
	if stats.Code != http.StatusOK {
		t.Fatalf("stats: %d: %s", stats.Code, stats.Body.String())
	}
	var sb struct {
		Pool *emigre.PipelineStats `json:"explain_pool"`
	}
	if err := json.Unmarshal(stats.Body.Bytes(), &sb); err != nil {
		t.Fatal(err)
	}
	if sb.Pool == nil {
		t.Fatalf("GET /stats has no explain_pool section: %s", stats.Body.String())
	}
	if sb.Pool.Workers != 4 {
		t.Fatalf("explain_pool.workers = %d, want 4", sb.Pool.Workers)
	}
	if sb.Pool.ParallelRuns < 1 {
		t.Fatalf("explain_pool.parallel_runs = %d, want >= 1", sb.Pool.ParallelRuns)
	}
	if sb.Pool.ChecksCommitted != int64(expl.Checks) {
		t.Fatalf("explain_pool.checks_committed = %d, want the response's checks = %d",
			sb.Pool.ChecksCommitted, expl.Checks)
	}
	if sb.Pool.InflightChecks != 0 {
		t.Fatalf("explain_pool.inflight_checks = %d at rest, want 0", sb.Pool.InflightChecks)
	}
}

// TestExplainWorkersIdenticalResponse is the serving-level A/B: the same
// question answered by a sequential server and a 4-worker server must
// produce identical response bodies — modulo the duration field and
// gated, the one tally whose split (gate vs cold push) follows worker
// timing; checks, the sum, may not move.
func TestExplainWorkersIdenticalResponse(t *testing.T) {
	seq, _ := newTestServer(t)
	par, _ := newTestServerCfg(t, func(c *Config) { c.ExplainWorkers = 4 })
	body := map[string]any{"user": "Paul", "wni": "Harry Potter", "mode": "remove", "method": "powerset"}

	strip := func(raw []byte) map[string]any {
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		delete(m, "duration_us")
		if _, ok := m["gated"]; !ok {
			t.Fatalf("response carries no gated count: %s", raw)
		}
		delete(m, "gated")
		return m
	}
	a := do(t, seq.Handler(), "POST", "/explain", body)
	b := do(t, par.Handler(), "POST", "/explain", body)
	if a.Code != http.StatusOK || b.Code != http.StatusOK {
		t.Fatalf("explain codes: seq=%d par=%d", a.Code, b.Code)
	}
	am, bm := strip(a.Body.Bytes()), strip(b.Body.Bytes())
	aj, _ := json.Marshal(am)
	bj, _ := json.Marshal(bm)
	if string(aj) != string(bj) {
		t.Fatalf("responses diverge:\nseq: %s\npar: %s", aj, bj)
	}
}

// TestRequestLogCarriesPipelineTally checks that the request log line of
// a parallel explanation reports its committed/wasted check split.
func TestRequestLogCarriesPipelineTally(t *testing.T) {
	var buf bytes.Buffer
	srv, _ := newTestServerCfg(t, func(c *Config) {
		c.ExplainWorkers = 4
		c.Logger = log.New(&buf, "", 0)
	})
	h := srv.Handler()
	body := map[string]any{"user": "Paul", "wni": "Harry Potter", "mode": "remove", "method": "powerset"}
	if rec := do(t, h, "POST", "/explain", body); rec.Code != http.StatusOK {
		t.Fatalf("explain: %d: %s", rec.Code, rec.Body.String())
	}
	line := strings.TrimSpace(buf.String())
	if !strings.Contains(line, " par=") {
		t.Fatalf("request log %q carries no pipeline tally", line)
	}
	// Sequential servers must not emit the field.
	buf.Reset()
	seq, _ := newTestServerCfg(t, func(c *Config) { c.Logger = log.New(&buf, "", 0) })
	if rec := do(t, seq.Handler(), "POST", "/explain", body); rec.Code != http.StatusOK {
		t.Fatalf("sequential explain: %d: %s", rec.Code, rec.Body.String())
	}
	if strings.Contains(buf.String(), " par=") {
		t.Fatalf("sequential request log %q reports a pipeline tally", strings.TrimSpace(buf.String()))
	}
}

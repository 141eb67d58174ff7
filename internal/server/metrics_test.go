package server

import (
	"io"
	"log"
	"net/http"
	"strings"
	"testing"

	emigre "github.com/why-not-xai/emigre"
	"github.com/why-not-xai/emigre/internal/obs"
)

// TestMetricsEndpointCoversAllLayers drives real traffic through the
// server and asserts GET /metrics serves a valid Prometheus exposition
// covering every instrumented layer: HTTP, PPR engines, the vector
// cache, admission and the CHECK path.
func TestMetricsEndpointCoversAllLayers(t *testing.T) {
	srv, _ := newTestServerCfg(t, func(c *Config) {
		c.Metrics = obs.NewRegistry()
		c.Logger = log.New(io.Discard, "", 0)
	})
	h := srv.Handler()

	if rec := do(t, h, "GET", "/recommend?user=Paul&n=3", nil); rec.Code != http.StatusOK {
		t.Fatalf("recommend status = %d: %s", rec.Code, rec.Body.String())
	}
	body := map[string]any{"user": "Paul", "wni": "Harry Potter", "mode": "remove", "method": "powerset"}
	if rec := do(t, h, "POST", "/explain", body); rec.Code != http.StatusOK {
		t.Fatalf("explain status = %d: %s", rec.Code, rec.Body.String())
	}
	// Second identical recommend: a cache hit for the hit counter.
	do(t, h, "GET", "/recommend?user=Paul&n=3", nil)
	// An unrouted path lands in the "other" bucket.
	do(t, h, "GET", "/definitely-not-a-route", nil)

	rec := do(t, h, "GET", "/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, obs.ContentType)
	}
	if err := obs.ValidateExposition(rec.Body.Bytes()); err != nil {
		t.Fatalf("exposition does not validate: %v\n%s", err, rec.Body.String())
	}
	out := rec.Body.String()

	// One family per layer, plus the concrete series traffic must have
	// produced.
	for _, want := range []string{
		// HTTP layer.
		"# TYPE emigre_http_requests_total counter",
		"# TYPE emigre_http_request_duration_seconds histogram",
		`emigre_http_requests_total{code="2xx",route="/explain"} 1`,
		`emigre_http_requests_total{code="2xx",route="/recommend"} 2`,
		`emigre_http_requests_total{code="4xx",route="other"} 1`,
		// PPR engines (process-global registry, rendered by the same
		// endpoint).
		"# TYPE emigre_ppr_runs_total counter",
		"# TYPE emigre_ppr_pushes_total counter",
		"# TYPE emigre_ppr_residual_mass histogram",
		// Vector cache.
		"# TYPE emigre_pprcache_hits_total counter",
		"# TYPE emigre_pprcache_resident_bytes gauge",
		// Admission.
		"# TYPE emigre_admission_inflight_units gauge",
		"# TYPE emigre_admission_clamped_weights_total counter",
		"# TYPE emigre_admission_rejections_total counter",
		// CHECK path.
		"# TYPE emigre_check_cold_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", out)
	}

	// The warm /recommend repeat must have registered as a cache hit.
	if !strings.Contains(out, "emigre_pprcache_hits_total") {
		t.Fatal("cache hit counter absent")
	}
	var hits string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "emigre_pprcache_hits_total ") {
			hits = strings.TrimPrefix(line, "emigre_pprcache_hits_total ")
			break
		}
	}
	if hits == "0" || hits == "" {
		t.Fatalf("cache hits = %q, want > 0 after a warm repeat", hits)
	}
}

// TestDefaultServerCheckCounters pins the shipped CHECK path: a
// default-configured server decides its CHECKs by cold push, visible as
// emigre_check_cold_total moving across one /explain, and rejects at the
// rival gate once a search has named its winners, visible as
// emigre_check_gated_total moving across a question the brute-force
// stream answers "no" to subset after subset.
func TestDefaultServerCheckCounters(t *testing.T) {
	srv, _ := newTestServer(t)
	h := srv.Handler()
	scrape := func() *obs.Exposition {
		t.Helper()
		e, err := obs.ParseExposition(do(t, h, "GET", "/metrics", nil).Body.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	before := scrape()
	body := map[string]any{"user": "Paul", "wni": "Harry Potter", "mode": "remove", "method": "powerset"}
	if rec := do(t, h, "POST", "/explain", body); rec.Code != http.StatusOK {
		t.Fatalf("explain status = %d: %s", rec.Code, rec.Body.String())
	}
	if d := obs.CounterDeltas(before, scrape())["emigre_check_cold_total"]; d <= 0 {
		t.Fatalf("emigre_check_cold_total moved by %v across an explain, want > 0", d)
	}
	before = scrape()
	body = map[string]any{"user": "Paul", "wni": "The Hobbit", "mode": "remove", "method": "brute-force"}
	if rec := do(t, h, "POST", "/explain", body); rec.Code != http.StatusNotFound {
		t.Fatalf("explain status = %d, want 404: %s", rec.Code, rec.Body.String())
	}
	if d := obs.CounterDeltas(before, scrape())["emigre_check_gated_total"]; d <= 0 {
		t.Fatalf("emigre_check_gated_total moved by %v across a search full of rejections, want > 0", d)
	}
}

// TestMetricsDefaultRegistry pins that a nil Config.Metrics falls back
// to the process-global registry and /metrics does not render it twice
// (duplicate TYPE lines are a format violation the validator rejects).
func TestMetricsDefaultRegistry(t *testing.T) {
	srv, _ := newTestServerCfg(t, func(c *Config) { c.Logger = log.New(io.Discard, "", 0) })
	rec := do(t, srv.Handler(), "GET", "/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d", rec.Code)
	}
	if err := obs.ValidateExposition(rec.Body.Bytes()); err != nil {
		t.Fatalf("exposition with defaulted registry does not validate: %v", err)
	}
	if n := strings.Count(rec.Body.String(), "# TYPE emigre_http_requests_total counter"); n != 1 {
		t.Fatalf("emigre_http_requests_total TYPE rendered %d times, want once", n)
	}
}

// TestServerNewDoesNotMutateCallerRecommender pins the WithCache fix
// at the server boundary: New rebinds the recommender to the server's
// private vector cache via a clone, so the caller's instance must come
// back exactly as it went in — no cache silently attached.
func TestServerNewDoesNotMutateCallerRecommender(t *testing.T) {
	books, err := emigre.NewBooks()
	if err != nil {
		t.Fatal(err)
	}
	rcfg := emigre.DefaultRecommenderConfig(books.Types.Item)
	rcfg.Beta = 1
	r, err := emigre.NewRecommender(books.Graph, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Graph:       books.Graph,
		Recommender: r,
		Options: emigre.Options{
			AllowedEdgeTypes: books.ActionEdgeTypes(),
			AddEdgeType:      books.Types.Rated,
		},
		Logger: log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cache() != nil {
		t.Fatal("New attached a cache to the caller's recommender")
	}
	if srv.r == r {
		t.Fatal("server must hold a clone, not the caller's instance")
	}
	if srv.r.Cache() == nil {
		t.Fatal("server's clone must carry the private cache")
	}
}

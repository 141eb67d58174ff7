package server

import (
	"context"
	"net/http"
	"testing"
)

// TestErrorBodiesPinned pins, byte for byte, the error payloads a
// client decodes as client.ErrorBody: a 404 whose search ran out of
// candidates, a 404 cut short by the CHECK budget, a 422 and a shed
// 503, whose retry hint repeats the Retry-After header.
func TestErrorBodiesPinned(t *testing.T) {
	for _, tc := range []struct {
		name     string
		wni      string
		method   string
		maxTests int
		status   int
		body     string
	}{
		{"404", "The Hobbit", "exhaustive", 0, http.StatusNotFound,
			`{"error":"emigre: no explanation found (exhaustive, remove mode: |H|=2, |T|=6, 3 combos, 1 checks)"}` + "\n"},
		{"404, budget exhausted", "The Hobbit", "brute-force", 1, http.StatusNotFound,
			`{"error":"emigre: no explanation found (brute force: |A|=2, 1 subsets checked)\nemigre: search budget exhausted","budget_exhausted":true}` + "\n"},
		{"422", "Python", "exhaustive", 0, http.StatusUnprocessableEntity,
			`{"error":"emigre: item already is the top recommendation: item 14"}` + "\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, _ := newTestServerCfg(t, func(c *Config) { c.Options.MaxTests = tc.maxTests })
			rec := do(t, srv.Handler(), "POST", "/explain", map[string]any{
				"user": "Paul", "wni": tc.wni, "mode": "remove", "method": tc.method,
			})
			if rec.Code != tc.status || rec.Body.String() != tc.body {
				t.Fatalf("got %d %q, want %d %q", rec.Code, rec.Body.String(), tc.status, tc.body)
			}
		})
	}
	t.Run("503", func(t *testing.T) {
		srv, _ := newTestServerCfg(t, func(c *Config) {
			c.MaxConcurrent = 1
			c.QueueDepth = -1
		})
		if err := srv.adm.Acquire(context.Background(), 1); err != nil {
			t.Fatal(err)
		}
		defer srv.adm.ReleaseObserved(1, 0)
		rec := do(t, srv.Handler(), "POST", "/explain", map[string]any{"user": "Paul", "wni": "Harry Potter"})
		want := `{"error":"server saturated: too many concurrent explanations; retry later","retry_after_seconds":` +
			rec.Header().Get("Retry-After") + "}\n"
		if rec.Code != http.StatusServiceUnavailable || rec.Body.String() != want {
			t.Fatalf("got %d %q, want 503 %q", rec.Code, rec.Body.String(), want)
		}
	})
}

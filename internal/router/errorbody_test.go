package router

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/why-not-xai/emigre/internal/testleak"
)

// TestErrorBodiesPinned pins, byte for byte, the error payloads of the
// router: a backend's 404 and 422 relayed unchanged, and the router's
// own shed 503, whose retry hint repeats the Retry-After header.
func TestErrorBodiesPinned(t *testing.T) {
	testleak.Check(t, "emigre") // backend search worker pools drain asynchronously
	back := newBooksBackend(t)
	rt, err := New(Config{
		Backends:      []string{back.URL},
		ProbeInterval: 20 * time.Millisecond,
		MaxConcurrent: 1,
		QueueDepth:    -1,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	for _, tc := range []struct {
		name   string
		q      map[string]any
		status int
		body   string
	}{
		{"404", map[string]any{"user": "Paul", "wni": "The Hobbit", "mode": "remove", "method": "exhaustive"}, http.StatusNotFound,
			`{"error":"emigre: no explanation found (exhaustive, remove mode: |H|=2, |T|=6, 3 combos, 1 checks)"}` + "\n"},
		{"422", map[string]any{"user": "Paul", "wni": "Python"}, http.StatusUnprocessableEntity,
			`{"error":"emigre: item already is the top recommendation: item 14"}` + "\n"},
	} {
		for _, base := range []string{back.URL, front.URL} {
			if status, body := postRaw(t, base, "/explain", tc.q); status != tc.status || string(body) != tc.body {
				t.Fatalf("%s via %s: got %d %q, want %d %q", tc.name, base, status, body, tc.status, tc.body)
			}
		}
	}

	if err := rt.adm.Acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	defer rt.adm.ReleaseObserved(1, 0)
	rec := postExplain(t, rt.Handler(), "Paul")
	want := `{"error":"router saturated: too many requests in flight; retry later","retry_after_seconds":` +
		rec.Header().Get("Retry-After") + "}\n"
	if rec.Code != http.StatusServiceUnavailable || rec.Body.String() != want {
		t.Fatalf("503: got %d %q, want %q", rec.Code, rec.Body.String(), want)
	}
}

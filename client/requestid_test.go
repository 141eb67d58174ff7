package client

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"
)

// TestRequestIDStableAcrossRetries: every attempt of one logical call
// carries the same X-Emigre-Request-Id with an incrementing attempt
// counter, and the echoed ID lands in the response Meta.
func TestRequestIDStableAcrossRetries(t *testing.T) {
	pinJitter(t, 0)
	var mu sync.Mutex
	var ids, attempts []string
	c, _ := newTestClient(t, func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		ids = append(ids, r.Header.Get(RequestIDHeader))
		attempts = append(attempts, r.Header.Get(AttemptHeader))
		n := len(ids)
		mu.Unlock()
		w.Header().Set(RequestIDHeader, r.Header.Get(RequestIDHeader))
		if n <= 2 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{"error":"saturated"}`, http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode(ExplainResponse{Verified: true})
	}, nil)

	out, err := c.Explain(context.Background(), ExplainRequest{User: "u", WNI: "x"})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ids) != 3 {
		t.Fatalf("attempts = %d, want 3", len(ids))
	}
	if ids[0] == "" || ids[0] != ids[1] || ids[1] != ids[2] {
		t.Errorf("request IDs differ across retries: %v", ids)
	}
	if attempts[0] != "1" || attempts[1] != "2" || attempts[2] != "3" {
		t.Errorf("attempt headers = %v, want 1,2,3", attempts)
	}
	if out.Meta.RequestID != ids[0] {
		t.Errorf("Meta.RequestID = %q, want echoed %q", out.Meta.RequestID, ids[0])
	}
	if out.Meta.Attempts != 3 {
		t.Errorf("Meta.Attempts = %d, want 3", out.Meta.Attempts)
	}
}

// TestWithRequestIDPinsID: a replay-style pinned ID is sent verbatim.
func TestWithRequestIDPinsID(t *testing.T) {
	var got string
	c, _ := newTestClient(t, func(w http.ResponseWriter, r *http.Request) {
		got = r.Header.Get(RequestIDHeader)
		json.NewEncoder(w).Encode(ExplainResponse{})
	}, nil)
	ctx := WithRequestID(context.Background(), "replay-42")
	out, err := c.Explain(ctx, ExplainRequest{User: "u", WNI: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if got != "replay-42" {
		t.Errorf("server saw ID %q, want replay-42", got)
	}
	if out.Meta.RequestID != "replay-42" {
		t.Errorf("Meta.RequestID = %q", out.Meta.RequestID)
	}
}

// TestMetaParsesTallyHeaders: the X-Emigre-Cache wire tally decodes
// into Meta; malformed values read as zero.
func TestMetaParsesTallyHeaders(t *testing.T) {
	c, _ := newTestClient(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(cacheTallyHeader, "3h/1m")
		json.NewEncoder(w).Encode(ExplainResponse{})
	}, nil)
	out, err := c.Explain(context.Background(), ExplainRequest{User: "u", WNI: "x"})
	if err != nil {
		t.Fatal(err)
	}
	m := out.Meta
	if m.CacheHits != 3 || m.CacheMisses != 1 {
		t.Errorf("Meta tallies = %+v, want 3h/1m", m)
	}

	for _, bad := range []string{"", "3/1", "3h1m", "xh/ym", "3h/"} {
		if a, b := parseTally(bad, "h", "m"); a != 0 || b != 0 {
			t.Errorf("parseTally(%q) = %d,%d, want 0,0", bad, a, b)
		}
	}
}

// TestRetryAfterBodyFieldOnly: a 503 whose retry hint is only in the
// JSON body (no Retry-After header) must still drive the backoff — the
// regression this test pins is the client ignoring retry_after_seconds
// when the header is absent.
func TestRetryAfterBodyFieldOnly(t *testing.T) {
	pinJitter(t, 0)
	var mu sync.Mutex
	var times []time.Time
	c, _ := newTestClient(t, func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		times = append(times, time.Now())
		n := len(times)
		mu.Unlock()
		if n == 1 {
			// Deliberately no Retry-After header: hint in the body only.
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(map[string]any{
				"error":               "server saturated",
				"retry_after_seconds": 1,
			})
			return
		}
		json.NewEncoder(w).Encode(ExplainResponse{Verified: true})
	}, func(cfg *Config) { cfg.MaxAttempts = 2 })

	out, err := c.Explain(context.Background(), ExplainRequest{User: "u", WNI: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Verified {
		t.Fatalf("unexpected response: %+v", out)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(times) != 2 {
		t.Fatalf("attempts = %d, want 2", len(times))
	}
	if gap := times[1].Sub(times[0]); gap < time.Second {
		t.Errorf("retry gap = %v, want >= 1s (body retry_after_seconds honored)", gap)
	}
	if st := c.Stats(); st.RetryWait < time.Second {
		t.Errorf("RetryWait = %v, want >= 1s", st.RetryWait)
	}
}

package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// pinJitter makes backoff deterministic for the duration of a test.
func pinJitter(t *testing.T, v float64) {
	t.Helper()
	old := jitter
	jitter = func() float64 { return v }
	t.Cleanup(func() { jitter = old })
}

func newTestClient(t *testing.T, h http.HandlerFunc, mod func(*Config)) (*Client, *httptest.Server) {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	cfg := Config{
		BaseURL:     ts.URL,
		MaxAttempts: 4,
		BaseDelay:   time.Millisecond,
		MaxDelay:    5 * time.Millisecond,
	}
	if mod != nil {
		mod(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, ts
}

// TestRetriesThenSucceeds: two 503s then a 200 converge within the
// attempt budget, and the stats reflect the retries.
func TestRetriesThenSucceeds(t *testing.T) {
	pinJitter(t, 0.5)
	var calls atomic.Int64
	c, _ := newTestClient(t, func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{"error":"saturated"}`, http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode(ExplainResponse{Mode: "remove", Verified: true})
	}, nil)

	out, err := c.Explain(context.Background(), ExplainRequest{User: "u", WNI: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Verified {
		t.Fatalf("unexpected response: %+v", out)
	}
	st := c.Stats()
	if st.Attempts != 3 || st.Retries != 2 {
		t.Fatalf("stats = %+v, want 3 attempts / 2 retries", st)
	}
}

// TestNoRetryOn4xx: a definitive client error is returned immediately.
func TestNoRetryOn4xx(t *testing.T) {
	for _, tc := range []struct {
		name    string
		status  int
		body    string
		message string
		budget  bool
	}{
		{"bad request", http.StatusBadRequest, `{"error":"no such node"}`, "no such node", false},
		{"no explanation", http.StatusNotFound, `{"error":"no explanation found"}`, "no explanation found", false},
		// Out of budget is as definitive as out of search space: asking
		// again runs the same search into the same budget.
		{"no explanation, budget exhausted", http.StatusNotFound,
			`{"error":"no explanation found","budget_exhausted":true}`, "no explanation found", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int64
			c, _ := newTestClient(t, func(w http.ResponseWriter, r *http.Request) {
				calls.Add(1)
				http.Error(w, tc.body, tc.status)
			}, nil)

			_, err := c.Explain(context.Background(), ExplainRequest{User: "u", WNI: "x"})
			var apiErr *APIError
			if !errors.As(err, &apiErr) || apiErr.Status != tc.status {
				t.Fatalf("err = %v, want *APIError %d", err, tc.status)
			}
			if apiErr.Message != tc.message || apiErr.BudgetExhausted != tc.budget {
				t.Fatalf("message = %q, budget exhausted = %v; want %q, %v",
					apiErr.Message, apiErr.BudgetExhausted, tc.message, tc.budget)
			}
			if Retryable(err) {
				t.Fatalf("a %d is classified retryable", tc.status)
			}
			if calls.Load() != 1 {
				t.Fatalf("calls = %d, want 1 (no retries on %d)", calls.Load(), tc.status)
			}
		})
	}
}

// TestRetryAfterHonored: the server's Retry-After dominates the backoff
// schedule.
func TestRetryAfterHonored(t *testing.T) {
	pinJitter(t, 0)
	var calls atomic.Int64
	var firstRetryGap atomic.Int64
	var last atomic.Int64
	c, _ := newTestClient(t, func(w http.ResponseWriter, r *http.Request) {
		now := time.Now().UnixNano()
		if prev := last.Swap(now); prev != 0 && firstRetryGap.Load() == 0 {
			firstRetryGap.Store(now - prev)
		}
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"busy"}`, http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode(ExplainResponse{})
	}, func(cfg *Config) { cfg.MaxAttempts = 2 })

	if _, err := c.Explain(context.Background(), ExplainRequest{User: "u", WNI: "x"}); err != nil {
		t.Fatal(err)
	}
	if gap := time.Duration(firstRetryGap.Load()); gap < time.Second {
		t.Fatalf("retry after %v, want >= 1s (Retry-After honored)", gap)
	}
	if st := c.Stats(); st.RetryWait < time.Second {
		t.Fatalf("RetryWait = %v, want >= 1s", st.RetryWait)
	}
}

// TestDeadlineBoundsRetries: a context deadline shorter than the
// server's Retry-After makes the client give up promptly instead of
// sleeping past the budget.
func TestDeadlineBoundsRetries(t *testing.T) {
	pinJitter(t, 0)
	c, _ := newTestClient(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		http.Error(w, `{"error":"busy"}`, http.StatusServiceUnavailable)
	}, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Explain(ctx, ExplainRequest{User: "u", WNI: "x"})
	if err == nil {
		t.Fatal("want error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded in chain", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("gave up after %v, want well under the 30s Retry-After", elapsed)
	}
}

// TestTransportErrorRetriesIdempotent: connection failures retry (all
// built-in calls are idempotent) and eventually surface the transport
// error.
func TestTransportErrorRetriesIdempotent(t *testing.T) {
	pinJitter(t, 0)
	ts := httptest.NewServer(http.NotFoundHandler())
	ts.Close() // refuse every connection
	c, err := New(Config{BaseURL: ts.URL, MaxAttempts: 3, BaseDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Explain(context.Background(), ExplainRequest{User: "u", WNI: "x"})
	if err == nil {
		t.Fatal("want error")
	}
	var tErr *transportError
	if !errors.As(err, &tErr) {
		t.Fatalf("err = %v, want transport error in chain", err)
	}
	if st := c.Stats(); st.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", st.Attempts)
	}
}

// TestRetryableClassification: the classification retries shed
// requests and ambiguous failures, and never retries definitive
// outcomes — a response that arrived but does not decode included.
func TestRetryableClassification(t *testing.T) {
	decodeErr := fmt.Errorf("client: decoding 200 response: %w", &json.SyntaxError{})
	for _, tc := range []struct {
		name string
		err  error
		want bool
	}{
		{"transport error", &transportError{err: errors.New("reset")}, true},
		{"504", &APIError{Status: 504}, true},
		{"404", &APIError{Status: 404}, false},
		// /recommend for a user with no candidate item: the server answers
		// 404 (it used to answer 500, which the next row shows is retried).
		{"404 no candidates on /recommend", &APIError{Status: 404, Message: "rec: user has no recommendable candidate items (user 0)"}, false},
		{"500", &APIError{Status: 500}, true},
		{"decode error", decodeErr, false},
		{"context expiry", context.DeadlineExceeded, false},
	} {
		if got := Retryable(tc.err); got != tc.want {
			t.Errorf("%s: Retryable = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestDegradedCounted: degraded explanations are surfaced and tallied.
func TestDegradedCounted(t *testing.T) {
	c, _ := newTestClient(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Emigre-Degraded", "partial")
		json.NewEncoder(w).Encode(ExplainResponse{Degraded: true, DegradedLevel: "partial", Partial: true})
	}, nil)
	out, err := c.Explain(context.Background(), ExplainRequest{User: "u", WNI: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Degraded || out.DegradedLevel != "partial" {
		t.Fatalf("response = %+v", out)
	}
	if st := c.Stats(); st.Degraded != 1 {
		t.Fatalf("degraded = %d, want 1", st.Degraded)
	}
}

// TestBackoffSchedule: the capped-exponential ceiling doubles per
// attempt and respects MaxDelay.
func TestBackoffSchedule(t *testing.T) {
	pinJitter(t, 1) // jitter draw at the ceiling exposes the cap
	c, err := New(Config{BaseURL: "http://example.invalid",
		BaseDelay: 100 * time.Millisecond, MaxDelay: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond,
		300 * time.Millisecond, 300 * time.Millisecond}
	for i, w := range want {
		if got := c.backoff(i+1, errors.New("x")); got != w {
			t.Fatalf("backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
}

// TestParseRetryAfter covers both header forms.
func TestParseRetryAfter(t *testing.T) {
	if d := parseRetryAfter("7"); d != 7*time.Second {
		t.Fatalf("seconds form = %v", d)
	}
	if d := parseRetryAfter("-3"); d != 0 {
		t.Fatalf("negative = %v, want 0", d)
	}
	date := time.Now().Add(10 * time.Second).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(date); d < 8*time.Second || d > 10*time.Second {
		t.Fatalf("date form = %v, want ~10s", d)
	}
	if d := parseRetryAfter("soon"); d != 0 {
		t.Fatalf("garbage = %v, want 0", d)
	}
}

// TestPerAttemptTimeoutDerivation: with an overall deadline, early
// attempts get a slice of the budget, not all of it.
func TestPerAttemptTimeoutDerivation(t *testing.T) {
	c, err := New(Config{BaseURL: "http://example.invalid", MaxAttempts: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Second)
	defer cancel()
	actx, acancel := c.attemptContext(ctx, 0)
	defer acancel()
	deadline, ok := actx.Deadline()
	if !ok {
		t.Fatal("no derived deadline")
	}
	slice := time.Until(deadline)
	if slice > 1100*time.Millisecond || slice < 500*time.Millisecond {
		t.Fatalf("first-attempt slice = %v, want ~1s (4s budget / 4 attempts)", slice)
	}
}

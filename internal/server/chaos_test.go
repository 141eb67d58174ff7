package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/why-not-xai/emigre/client"
	"github.com/why-not-xai/emigre/internal/fault"
)

// The chaos suite drives the whole stack — resilient client → HTTP →
// admission → search (partial answer when squeezed) → PPR engines → cache —
// through failpoint schedules under -race, asserting the system's
// robustness contracts: no deadlock, no cache poisoning, well-formed
// degraded responses, and client convergence once transient faults
// clear. Sites exercised (≥8): server.explain.decode,
// server.response.write, pprcache.fill, ppr.forward.loop,
// ppr.reverse.loop, hin.overlay.snapshot, emigre.check, plus the
// armed-only server.health.cache and server.health.graph.

// newChaosStack boots a books-graph server over real HTTP and returns a
// resilient client pointed at it.
func newChaosStack(t *testing.T, mutate func(*Config)) (*Server, *client.Client) {
	t.Helper()
	srv, _ := newTestServerCfg(t, func(c *Config) {
		c.MaxConcurrent = 4
		if mutate != nil {
			mutate(c)
		}
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	cl, err := client.New(client.Config{
		BaseURL:     ts.URL,
		MaxAttempts: 8,
		BaseDelay:   2 * time.Millisecond,
		MaxDelay:    50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv, cl
}

// chaosQueries are the Why-Not questions each phase replays — all
// known-answerable on the books graph, across modes, methods and
// granularities (single, group, category) to widen the exercised
// surface.
var chaosQueries = []client.ExplainRequest{
	{User: "Paul", WNI: "Harry Potter", Mode: "remove", Method: "powerset"},
	{User: "Paul", WNI: "Harry Potter", Mode: "add", Method: "powerset"},
	{User: "Paul", Items: []string{"Harry Potter", "The Hobbit"}, Mode: "add"},
	{User: "Paul", Category: "Fantasy", Mode: "add"},
}

// normalize strips the per-run timing field so responses can be
// compared across runs.
func normalize(r *client.ExplainResponse) *client.ExplainResponse {
	if r == nil {
		return nil
	}
	c := *r
	c.DurationUS = 0
	// Wire metadata varies run to run (random correlation IDs, cache
	// warmth, attempt counts) without affecting explanation content.
	c.Meta = client.Meta{}
	return &c
}

// runQueries executes every chaos query once, returning responses by
// index; nil entries are calls that errored (err recorded instead).
func runQueries(t *testing.T, cl *client.Client, timeout time.Duration) ([]*client.ExplainResponse, []error) {
	t.Helper()
	out := make([]*client.ExplainResponse, len(chaosQueries))
	errs := make([]error, len(chaosQueries))
	var wg sync.WaitGroup
	for i, q := range chaosQueries {
		wg.Add(1)
		go func(i int, q client.ExplainRequest) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			defer cancel()
			out[i], errs[i] = cl.Explain(ctx, q)
		}(i, q)
	}
	wg.Wait()
	return out, errs
}

// TestChaosScheduleConvergesAndRecovers is the main chaos run:
//
//  1. a fault-free baseline is recorded;
//  2. a schedule arms 7 sites — one-shot error bursts on the handler,
//     cache, engine loops and overlay builds, plus a probabilistic
//     sleep on the CHECK seam — and the same queries are
//     replayed through the retrying client, which must converge on
//     every one;
//  3. after DisarmAll, the queries are replayed once more and must be
//     deep-equal to the baseline: no poisoned cache entry, no stuck
//     state, no answer drift.
func TestChaosScheduleConvergesAndRecovers(t *testing.T) {
	srv, cl := newChaosStack(t, nil)
	t.Cleanup(fault.DisarmAll)

	baseline, errs := runQueries(t, cl, 30*time.Second)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("baseline query %d: %v", i, err)
		}
		if baseline[i].Degraded {
			t.Fatalf("baseline query %d degraded without any fault armed: %+v", i, baseline[i])
		}
	}

	// Cold state for the chaos phase so pprcache.fill is reachable again.
	srv.cache.Purge()

	fault.SetSeed(7)
	schedule := "server.explain.decode=error(chaos decode)*1;" +
		"server.response.write=error(chaos write)*1;" +
		"pprcache.fill=error(chaos fill)*2;" +
		"ppr.forward.loop=error(chaos fwd)*2;" +
		"ppr.reverse.loop=error(chaos rev)*2;" +
		"hin.overlay.snapshot=error(chaos overlay)*2;" +
		"emigre.check=sleep(200us)%0.5"
	if err := fault.Apply(schedule); err != nil {
		t.Fatal(err)
	}

	// Every one-shot burst exhausts itself against retries, so the
	// client must converge on all queries despite the faults.
	chaos, errs := runQueries(t, cl, 60*time.Second)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("chaos query %d did not converge: %v", i, err)
		}
		if chaos[i] == nil || len(chaos[i].Edges) == 0 {
			t.Fatalf("chaos query %d: empty response %+v", i, chaos[i])
		}
	}
	if st := cl.Stats(); st.Retries == 0 {
		t.Fatal("chaos phase caused no client retries; schedule did not bite")
	}
	// Every error-action site must have actually fired.
	for _, name := range []string{
		"server.explain.decode", "server.response.write", "pprcache.fill",
		"ppr.forward.loop", "ppr.reverse.loop", "hin.overlay.snapshot",
	} {
		site := fault.Lookup(name)
		if site == nil {
			t.Fatalf("site %q not registered", name)
		}
		if site.Injections() == 0 {
			t.Errorf("site %q never injected; chaos schedule left it cold", name)
		}
	}
	if fault.Lookup("emigre.check").Hits() == 0 {
		t.Error("emigre.check was never evaluated under the sleep schedule")
	}

	fault.DisarmAll()
	after, errs := runQueries(t, cl, 30*time.Second)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("post-disarm query %d: %v", i, err)
		}
		if !reflect.DeepEqual(normalize(after[i]), normalize(baseline[i])) {
			t.Errorf("post-disarm query %d drifted from baseline:\nbaseline: %+v\nafter:    %+v",
				i, baseline[i], after[i])
		}
	}
}

// TestChaosDeadlineSqueeze pins the partial answer's contract: with
// every CHECK slowed by a failpoint and a tight budget, the server runs
// one search and answers HTTP 200 with degraded=true and a non-empty,
// unverified partial explanation, while a DisableDegraded server can
// only 504.
func TestChaosDeadlineSqueeze(t *testing.T) {
	t.Cleanup(fault.DisarmAll)
	_, partial := newChaosStack(t, nil)
	_, plain := newChaosStack(t, func(c *Config) { c.DisableDegraded = true })

	// 600ms per CHECK against a 500ms budget: even one check overruns
	// the whole budget, so the server must answer with the partial while
	// the plain server can only time out.
	if err := fault.Apply("emigre.check=sleep(600ms)"); err != nil {
		t.Fatal(err)
	}
	req := client.ExplainRequest{
		User: "Paul", WNI: "Harry Potter", Mode: "remove",
		Method: "exhaustive", TimeoutMS: 500,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	checks := fault.Lookup("emigre.check")
	before := checks.Hits()
	out, err := partial.Explain(ctx, req)
	if err != nil {
		t.Fatalf("partial server: %v, want a degraded 200", err)
	}
	if !out.Degraded || len(out.Edges) == 0 {
		t.Fatalf("partial server response not a usable degraded answer: %+v", out)
	}
	if !out.Partial || out.DegradedLevel != "partial" || out.Verified {
		t.Fatalf("squeezed response should be the unverified partial: %+v", out)
	}
	// One search: it reached its first CHECK and was cut there. A second,
	// cheaper search would have hit the CHECK seam again.
	if n := checks.Hits() - before; n != 1 {
		t.Fatalf("squeezed explain evaluated %d CHECKs, want 1 (one search)", n)
	}

	_, err = plain.Explain(ctx, req)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusGatewayTimeout {
		t.Fatalf("DisableDegraded server: err = %v, want 504", err)
	}
}

// TestChaosByteIdentityWhenBudgetSuffices: with no faults armed and a
// generous budget, servers with and without partial answers return
// identical answers (modulo the wall-clock duration field) —
// degradation must never alter a full-fidelity response.
func TestChaosByteIdentityWhenBudgetSuffices(t *testing.T) {
	fault.DisarmAll()
	srvPartial, _ := newTestServerCfg(t, nil)
	srvPlain, _ := newTestServerCfg(t, func(c *Config) { c.DisableDegraded = true })

	for _, q := range chaosQueries {
		body := map[string]any{
			"user": q.User, "mode": q.Mode, "timeout_ms": 30000,
		}
		switch {
		case len(q.Items) > 0:
			body["items"] = q.Items
		case q.Category != "":
			body["category"] = q.Category
		default:
			body["wni"] = q.WNI
			body["method"] = q.Method
		}
		a := do(t, srvPartial.Handler(), "POST", "/explain", body)
		b := do(t, srvPlain.Handler(), "POST", "/explain", body)
		if a.Code != http.StatusOK || b.Code != http.StatusOK {
			t.Fatalf("query %+v: codes %d / %d: %s / %s", q, a.Code, b.Code, a.Body.String(), b.Body.String())
		}
		var ra, rb client.ExplainResponse
		if err := json.Unmarshal(a.Body.Bytes(), &ra); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b.Body.Bytes(), &rb); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(normalize(&ra), normalize(&rb)) {
			t.Errorf("partial on/off drift for %+v:\n  on : %s\n  off: %s",
				q, a.Body.String(), b.Body.String())
		}
	}
}

// TestChaosHealthFailpoints: arming a health site flips /readyz to 503
// (unhealthy component named), disarming restores readiness — the
// orchestrator-facing side of fault injection.
func TestChaosHealthFailpoints(t *testing.T) {
	t.Cleanup(fault.DisarmAll)
	srv, cl := newChaosStack(t, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := cl.Ready(ctx); err != nil {
		t.Fatalf("ready before faults: %v", err)
	}
	for _, tc := range []struct{ site, component string }{
		{"server.health.cache", "cache"},
		{"server.health.graph", "graph"},
	} {
		if err := fault.Apply(tc.site + "=error(unhealthy)"); err != nil {
			t.Fatal(err)
		}
		rec := do(t, srv.Handler(), "GET", "/readyz", nil)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s armed: /readyz = %d, want 503", tc.site, rec.Code)
		}
		var body map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		if body["component"] != tc.component {
			t.Fatalf("%s armed: component = %q, want %q", tc.site, body["component"], tc.component)
		}
		fault.DisarmAll()
	}
	if err := cl.Ready(ctx); err != nil {
		t.Fatalf("ready after disarm: %v", err)
	}
}

package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/why-not-xai/emigre/client"
	"github.com/why-not-xai/emigre/internal/testleak"
)

// fakeBackend is a scriptable stand-in for emigre-server: readiness is
// a flag, /explain answers with the backend's name in the description
// (so tests can see which shard served), and delay/status knobs model
// slow and failing nodes. Handlers poll the request context while
// delaying, like the real server's searches do.
type fakeBackend struct {
	ts       *httptest.Server
	name     string
	ready    atomic.Bool
	delay    atomic.Int64 // nanoseconds
	status   atomic.Int64 // 0 = 200
	budget   atomic.Bool  // a scripted /explain failure is marked budget_exhausted, as a real backend's 404 can be
	garbled  atomic.Bool  // answer 200 with a body that is not JSON
	served   atomic.Int64
	canceled atomic.Int64 // requests whose context died mid-delay
}

func newFakeBackend(t *testing.T, name string) *fakeBackend {
	t.Helper()
	b := &fakeBackend{name: name}
	b.ready.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !b.ready.Load() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	mux.HandleFunc("POST /explain", func(w http.ResponseWriter, r *http.Request) {
		var req client.ExplainRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		if d := time.Duration(b.delay.Load()); d > 0 {
			select {
			case <-time.After(d):
			case <-r.Context().Done():
				b.canceled.Add(1)
				return
			}
		}
		if s := int(b.status.Load()); s != 0 {
			writeJSON(w, s, client.ErrorBody{Error: "scripted failure", BudgetExhausted: b.budget.Load()})
			return
		}
		if b.garbled.Load() {
			io.WriteString(w, "{not json")
			return
		}
		b.served.Add(1)
		writeJSON(w, http.StatusOK, &client.ExplainResponse{
			Mode:        "remove",
			Method:      "exhaustive",
			Edges:       []client.Edge{},
			Description: "served by " + b.name + " for " + req.User,
			Verified:    true,
			Checks:      1,
			DurationUS:  7,
		})
	})
	mux.HandleFunc("GET /recommend", func(w http.ResponseWriter, r *http.Request) {
		if s := int(b.status.Load()); s != 0 {
			writeJSON(w, s, map[string]string{"error": "scripted failure"})
			return
		}
		b.served.Add(1)
		writeJSON(w, http.StatusOK, &client.RecommendResponse{Items: []client.ScoredItem{}})
	})
	b.ts = httptest.NewServer(mux)
	t.Cleanup(b.ts.Close)
	return b
}

func (b *fakeBackend) url() string { return b.ts.URL }

// newTestRouter builds a router over the fakes with test-friendly
// timing: fast probes, bounded upstream budget, no client retries
// (failover behavior is the unit under test, not the client's).
func newTestRouter(t *testing.T, mutate func(*Config), backends ...*fakeBackend) *Router {
	t.Helper()
	urls := make([]string, len(backends))
	for i, b := range backends {
		urls[i] = b.url()
	}
	cfg := Config{
		Backends:         urls,
		ProbeInterval:    20 * time.Millisecond,
		FailoverLegs:     2,
		UpstreamTimeout:  5 * time.Second,
		UpstreamAttempts: 1,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	rt, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func postExplain(t *testing.T, h http.Handler, user string) *httptest.ResponseRecorder {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"user": user, "wni": "X", "mode": "remove"})
	req := httptest.NewRequest("POST", "/explain", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func decodeExplain(t *testing.T, rec *httptest.ResponseRecorder) client.ExplainResponse {
	t.Helper()
	var out client.ExplainResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("decoding %d response %q: %v", rec.Code, rec.Body.String(), err)
	}
	return out
}

// TestRouteShardAffinity: every request for one user lands on that
// user's ring owner, consistently across repeats. Hedging is pushed out
// of reach: the adaptive delay settles at its 2 ms floor after eight
// sub-millisecond answers, and on a loaded box a slower answer then
// loses to its hedge leg on the ring successor — a property of the
// hedge (TestHedgeSlowOwnerCancellationHygiene), not of the ring.
func TestRouteShardAffinity(t *testing.T) {
	testleak.Check(t)
	b1, b2, b3 := newFakeBackend(t, "b1"), newFakeBackend(t, "b2"), newFakeBackend(t, "b3")
	rt := newTestRouter(t, func(c *Config) { c.HedgeAfter = time.Minute }, b1, b2, b3)
	for i := 0; i < 20; i++ {
		user := fmt.Sprintf("user-%d", i)
		owner := rt.ring.owner(user)
		for rep := 0; rep < 3; rep++ {
			rec := postExplain(t, rt.Handler(), user)
			if rec.Code != http.StatusOK {
				t.Fatalf("user %s: status %d: %s", user, rec.Code, rec.Body.String())
			}
			if got := rec.Header().Get(BackendHeader); got != owner {
				t.Fatalf("user %s rep %d served by %s, ring owner is %s", user, rep, got, owner)
			}
		}
	}
}

// TestHealthRoutesAroundUnready: when a backend's /readyz flips to
// 503, the prober pulls it from rotation and its users' requests land
// on the ring successor; recovery puts it back.
func TestHealthRoutesAroundUnready(t *testing.T) {
	testleak.Check(t)
	b1, b2, b3 := newFakeBackend(t, "b1"), newFakeBackend(t, "b2"), newFakeBackend(t, "b3")
	rt := newTestRouter(t, nil, b1, b2, b3)
	byURL := map[string]*fakeBackend{b1.url(): b1, b2.url(): b2, b3.url(): b3}

	user := "affinity-user"
	owner := byURL[rt.ring.owner(user)]
	owner.ready.Store(false)
	waitForProbe(t, rt, owner.url(), false)

	rec := postExplain(t, rt.Handler(), user)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(BackendHeader); got == owner.url() {
		t.Fatalf("request served by unready owner %s", got)
	}

	owner.ready.Store(true)
	waitForProbe(t, rt, owner.url(), true)
	rec = postExplain(t, rt.Handler(), user)
	if got := rec.Header().Get(BackendHeader); got != owner.url() {
		t.Fatalf("after recovery, served by %s, want owner %s", got, owner.url())
	}
}

func waitForProbe(t *testing.T, rt *Router, backend string, want bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if rt.prober.isReady(backend) == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("prober never saw %s ready=%v", backend, want)
}

// TestFailoverOn503: a shedding owner (503) fails over to the ring
// successor within the same request — the caller sees 200.
func TestFailoverOn503(t *testing.T) {
	testleak.Check(t)
	b1, b2, b3 := newFakeBackend(t, "b1"), newFakeBackend(t, "b2"), newFakeBackend(t, "b3")
	rt := newTestRouter(t, nil, b1, b2, b3)
	byURL := map[string]*fakeBackend{b1.url(): b1, b2.url(): b2, b3.url(): b3}

	user := "failover-user"
	owner := byURL[rt.ring.owner(user)]
	owner.status.Store(http.StatusServiceUnavailable)

	rec := postExplain(t, rt.Handler(), user)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 via failover: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(BackendHeader); got == owner.url() {
		t.Fatal("response credited to the shedding owner")
	}
	if rt.m.failovers.Value() == 0 {
		t.Fatal("failover counter never moved")
	}
}

// TestBadRequestDoesNotFailOver: a definitive outcome is the answer —
// a 4xx the backend meant, or a 200 whose body does not decode (the
// request was served; asking another backend cannot un-serve it). The
// router must not burn a second backend on either, even though explain
// is idempotent.
func TestBadRequestDoesNotFailOver(t *testing.T) {
	recommend := func(t *testing.T, h http.Handler, user string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/recommend?user="+user, nil))
		return rec
	}
	for _, tc := range []struct {
		name   string
		script func(owner *fakeBackend)
		send   func(*testing.T, http.Handler, string) *httptest.ResponseRecorder
		want   int
		// body, when set, is the exact payload the client must see.
		body string
	}{
		{"4xx", func(b *fakeBackend) { b.status.Store(http.StatusNotFound) }, postExplain, http.StatusNotFound,
			`{"error":"scripted failure"}` + "\n"},
		// A search cut short by its CHECK budget: the mark passes through
		// and the answer stays definitive — another backend would run the
		// same search into the same budget.
		{"404, budget exhausted", func(b *fakeBackend) { b.status.Store(http.StatusNotFound); b.budget.Store(true) },
			postExplain, http.StatusNotFound, `{"error":"scripted failure","budget_exhausted":true}` + "\n"},
		{"decode error", func(b *fakeBackend) { b.garbled.Store(true) }, postExplain, http.StatusBadGateway, ""},
		// The backend's answer for a user with no candidate item.
		{"recommend, no candidates", func(b *fakeBackend) { b.status.Store(http.StatusNotFound) }, recommend, http.StatusNotFound, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testleak.Check(t)
			b1, b2 := newFakeBackend(t, "b1"), newFakeBackend(t, "b2")
			rt := newTestRouter(t, nil, b1, b2)
			byURL := map[string]*fakeBackend{b1.url(): b1, b2.url(): b2}
			user := "bad-request-user"
			tc.script(byURL[rt.ring.owner(user)])

			rec := tc.send(t, rt.Handler(), user)
			if rec.Code != tc.want {
				t.Fatalf("status %d, want %d: %s", rec.Code, tc.want, rec.Body.String())
			}
			if tc.body != "" && rec.Body.String() != tc.body {
				t.Fatalf("body %q, want the backend's %q", rec.Body.String(), tc.body)
			}
			if rt.m.failovers.Value() != 0 {
				t.Fatal("definitive outcome triggered a failover")
			}
		})
	}
}

// TestHedgeSlowOwnerCancellationHygiene: with the owner wedged, the
// hedge leg answers fast, the winning response is returned, and the
// losing leg's goroutine and request context are reclaimed —
// testleak.Check fails the test if the slow leg outlives it.
func TestHedgeSlowOwnerCancellationHygiene(t *testing.T) {
	testleak.Check(t)
	b1, b2, b3 := newFakeBackend(t, "b1"), newFakeBackend(t, "b2"), newFakeBackend(t, "b3")
	rt := newTestRouter(t, func(c *Config) {
		c.HedgeAfter = 10 * time.Millisecond
	}, b1, b2, b3)
	byURL := map[string]*fakeBackend{b1.url(): b1, b2.url(): b2, b3.url(): b3}

	user := "hedge-user"
	owner := byURL[rt.ring.owner(user)]
	owner.delay.Store(int64(2 * time.Second))

	start := time.Now()
	rec := postExplain(t, rt.Handler(), user)
	elapsed := time.Since(start)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(BackendHeader); got == owner.url() {
		t.Fatal("wedged owner somehow won the race")
	}
	if elapsed > time.Second {
		t.Fatalf("hedged answer took %v, want well under the owner's 2s delay", elapsed)
	}
	if rt.m.hedges.Value() == 0 || rt.m.hedgeWins.Value() == 0 {
		t.Fatalf("hedge counters: hedges=%d wins=%d, want both > 0",
			rt.m.hedges.Value(), rt.m.hedgeWins.Value())
	}
	// The loser's request context must be canceled promptly — observed
	// by the fake backend's handler unblocking on ctx.Done.
	deadline := time.Now().Add(3 * time.Second)
	for owner.canceled.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if owner.canceled.Load() == 0 {
		t.Fatal("losing hedge leg's request context was never canceled")
	}
}

// TestBatchOrderAndSharding: /explain/batch answers in request order
// with each item served by its user's ring owner.
func TestBatchOrderAndSharding(t *testing.T) {
	testleak.Check(t)
	b1, b2, b3 := newFakeBackend(t, "b1"), newFakeBackend(t, "b2"), newFakeBackend(t, "b3")
	rt := newTestRouter(t, nil, b1, b2, b3)
	names := map[string]string{b1.url(): "b1", b2.url(): "b2", b3.url(): "b3"}

	var breq BatchRequest
	users := make([]string, 24)
	for i := range users {
		users[i] = fmt.Sprintf("batch-user-%d", i)
		breq.Requests = append(breq.Requests, client.ExplainRequest{User: users[i], WNI: "X", Mode: "remove"})
	}
	body, _ := json.Marshal(breq)
	req := httptest.NewRequest("POST", "/explain/batch", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(users) {
		t.Fatalf("got %d results, want %d", len(resp.Results), len(users))
	}
	shards := map[string]bool{}
	for i, item := range resp.Results {
		if item.Status != http.StatusOK || item.Result == nil {
			t.Fatalf("item %d: status %d error %q", i, item.Status, item.Error)
		}
		wantOwner := names[rt.ring.owner(users[i])]
		want := "served by " + wantOwner + " for " + users[i]
		if item.Result.Description != want {
			t.Fatalf("item %d: %q, want %q (request order or sharding broken)", i, item.Result.Description, want)
		}
		shards[wantOwner] = true
	}
	if len(shards) < 2 {
		t.Fatalf("batch exercised %d shards, want a real fan-out", len(shards))
	}
}

// TestBatchPerItemFailure: one bad shard yields per-item errors, not a
// voided batch — a 500 in its own slot, and a budget-cut "no
// explanation" 404 with the backend's budget_exhausted mark in its.
func TestBatchPerItemFailure(t *testing.T) {
	testleak.Check(t)
	b1, b2, b3 := newFakeBackend(t, "b1"), newFakeBackend(t, "b2"), newFakeBackend(t, "b3")
	rt := newTestRouter(t, nil, b1, b2, b3)
	backends := []*fakeBackend{b1, b2, b3}

	// Find a user on every shard.
	users := make([]string, len(backends))
	for i, found := 0, 0; found < len(backends); i++ {
		u := fmt.Sprintf("pf-user-%d", i)
		for j, b := range backends {
			if rt.ring.owner(u) == b.url() && users[j] == "" {
				users[j] = u
				found++
			}
		}
	}
	b2.status.Store(http.StatusInternalServerError)
	b3.status.Store(http.StatusNotFound)
	b3.budget.Store(true)

	var reqs []client.ExplainRequest
	for _, u := range users {
		reqs = append(reqs, client.ExplainRequest{User: u, WNI: "X", Mode: "remove"})
	}
	body, _ := json.Marshal(BatchRequest{Requests: reqs})
	req := httptest.NewRequest("POST", "/explain/batch", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d, want 200 with per-item errors", rec.Code)
	}
	var resp BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].Status != http.StatusOK {
		t.Fatalf("healthy shard's item failed: %+v", resp.Results[0])
	}
	if resp.Results[1].Status != http.StatusInternalServerError || resp.Results[1].Error == "" {
		t.Fatalf("bad shard's item = %+v, want per-item 500", resp.Results[1])
	}
	if resp.Results[2].Status != http.StatusNotFound || resp.Results[2].Error == "" {
		t.Fatalf("budget-cut shard's item = %+v, want per-item 404", resp.Results[2])
	}
	if resp.Results[0].BudgetExhausted || resp.Results[1].BudgetExhausted || !resp.Results[2].BudgetExhausted {
		t.Fatalf("results = %+v, want the budget_exhausted mark on the 404 slot only", resp.Results)
	}
}

// TestRouterReadyz: draining and an all-unready ring both flip the
// router's own readiness, so a fronting balancer can drain routers the
// same way routers drain backends.
func TestRouterReadyz(t *testing.T) {
	testleak.Check(t)
	b1 := newFakeBackend(t, "b1")
	rt := newTestRouter(t, nil, b1)

	req := httptest.NewRequest("GET", "/readyz", nil)
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("ready status = %d", rec.Code)
	}

	b1.ready.Store(false)
	waitForProbe(t, rt, b1.url(), false)
	rec = httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("all-backends-unready readyz = %d, want 503", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "no ready backends") {
		t.Fatalf("body = %s", rec.Body.String())
	}

	b1.ready.Store(true)
	waitForProbe(t, rt, b1.url(), true)
	rt.SetDraining()
	rec = httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "draining") {
		t.Fatalf("draining readyz = %d %s", rec.Code, rec.Body.String())
	}
}

// TestRequestIDPropagation: the inbound correlation ID is echoed to
// the caller and carried to the upstream backend.
func TestRequestIDPropagation(t *testing.T) {
	testleak.Check(t)
	var upstreamRID atomic.Value
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	mux.HandleFunc("POST /explain", func(w http.ResponseWriter, r *http.Request) {
		upstreamRID.Store(r.Header.Get(client.RequestIDHeader))
		io.Copy(io.Discard, r.Body)
		writeJSON(w, http.StatusOK, &client.ExplainResponse{Mode: "remove", Edges: []client.Edge{}})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	rt, err := New(Config{Backends: []string{ts.URL}, ProbeInterval: 20 * time.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)

	body, _ := json.Marshal(map[string]string{"user": "rid-user", "wni": "X"})
	req := httptest.NewRequest("POST", "/explain", bytes.NewReader(body))
	req.Header.Set(client.RequestIDHeader, "rid-test-42")
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(client.RequestIDHeader); got != "rid-test-42" {
		t.Fatalf("echoed rid = %q", got)
	}
	if got, _ := upstreamRID.Load().(string); got != "rid-test-42" {
		t.Fatalf("upstream saw rid %q, want the inbound one", got)
	}
}

// TestRouterSaturation503: the front-door admission controller sheds
// with 503 + Retry-After once capacity and queue are full.
func TestRouterSaturation503(t *testing.T) {
	testleak.Check(t)
	b1 := newFakeBackend(t, "b1")
	b1.delay.Store(int64(2 * time.Second))
	rtNoQueue, err := New(Config{
		Backends:         []string{b1.url()},
		ProbeInterval:    20 * time.Millisecond,
		MaxConcurrent:    1,
		QueueDepth:       -1,
		UpstreamTimeout:  5 * time.Second,
		UpstreamAttempts: 1,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rtNoQueue.Close)

	slow := make(chan *httptest.ResponseRecorder, 1)
	go func() { slow <- postExplain(t, rtNoQueue.Handler(), "sat-user-a") }()
	// Wait for the slow request to occupy the only unit.
	deadline := time.Now().Add(3 * time.Second)
	for rtNoQueue.adm.Used() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if rtNoQueue.adm.Used() == 0 {
		t.Fatal("slow request never acquired the unit")
	}
	rec := postExplain(t, rtNoQueue.Handler(), "sat-user-b")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	b1.delay.Store(0)
	if r := <-slow; r.Code != http.StatusOK {
		t.Fatalf("slow request finished %d", r.Code)
	}
}

// TestResponseFramingMatchesServer: routed success responses use the
// exact framing the server uses — Content-Type and json.Encoder's
// trailing newline — so byte-identity holds end to end.
func TestResponseFramingMatchesServer(t *testing.T) {
	testleak.Check(t)
	b1 := newFakeBackend(t, "b1")
	rt := newTestRouter(t, nil, b1)
	rec := postExplain(t, rt.Handler(), "framing-user")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if !bytes.HasSuffix(rec.Body.Bytes(), []byte("}\n")) {
		dump, _ := httputil.DumpResponse(rec.Result(), true)
		t.Fatalf("body missing Encoder framing:\n%s", dump)
	}
}

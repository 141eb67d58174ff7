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
	ts      *httptest.Server
	name    string
	ready   atomic.Bool
	delay   atomic.Int64 // nanoseconds
	status  atomic.Int64 // 0 = 200
	budget  atomic.Bool  // a scripted /explain failure is marked budget_exhausted, as a real backend's 404 can be
	garbled atomic.Bool  // answer 200 with a body that is not JSON
	served  atomic.Int64
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

// TestRouteShardAffinity: every request for one user lands on that
// user's ring owner, consistently across repeats.
func TestRouteShardAffinity(t *testing.T) {
	testleak.Check(t)
	b1, b2, b3 := newFakeBackend(t, "b1"), newFakeBackend(t, "b2"), newFakeBackend(t, "b3")
	rt := newTestRouter(t, nil, b1, b2, b3)
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

// TestRoutedRequestUsesOneLeg: a healthy owner is the only backend a
// request reaches, however slowly it answers — the successor holds none
// of the user's warm state, so asking it too only duplicates the work.
// The owner takes 150 ms, long enough that a second leg raced after a
// short delay would reach the successor.
func TestRoutedRequestUsesOneLeg(t *testing.T) {
	testleak.Check(t)
	owner, successor := newFakeBackend(t, "owner"), newFakeBackend(t, "successor")
	owner.delay.Store(int64(150 * time.Millisecond))
	rt := newTestRouter(t, nil, owner, successor)

	const n = 5
	sent := 0
	for i := 0; sent < n; i++ {
		user := fmt.Sprintf("one-leg-user-%d", i)
		if rt.ring.owner(user) != owner.url() {
			continue
		}
		if rec := postExplain(t, rt.Handler(), user); rec.Code != http.StatusOK {
			t.Fatalf("user %s: status %d: %s", user, rec.Code, rec.Body.String())
		}
		sent++
	}
	if got := owner.served.Load(); got != n {
		t.Fatalf("owner served %d requests, want %d", got, n)
	}
	if got := successor.served.Load(); got != 0 {
		t.Fatalf("successor served %d requests, want 0", got)
	}
	var legs int64
	for _, c := range rt.m.upReqs {
		legs += c.Value()
	}
	if legs != n {
		t.Fatalf("emigre_router_upstream_requests_total sums to %d, want %d", legs, n)
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

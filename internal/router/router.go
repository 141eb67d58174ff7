package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/why-not-xai/emigre/client"
	"github.com/why-not-xai/emigre/internal/admit"
	"github.com/why-not-xai/emigre/internal/obs"
)

// Defaults for zero Config fields.
const (
	DefaultFailoverLegs     = 2
	DefaultMaxConcurrent    = 256
	DefaultQueueDepth       = 128
	DefaultUpstreamTimeout  = 30 * time.Second
	DefaultUpstreamAttempts = 2
)

// Op names used as the routing metrics' op label.
const (
	opExplain   = "explain"
	opRecommend = "recommend"
	opDiagnose  = "diagnose"
)

// Config wires a Router to its backends.
type Config struct {
	// Backends are the emigre-server base URLs (scheme optional;
	// "host:port" gets "http://"). At least one is required.
	Backends []string
	// VirtualNodes is the per-backend point count on the hash ring
	// (0 = DefaultVirtualNodes).
	VirtualNodes int
	// ProbeInterval is the /readyz poll period (0 = DefaultProbeInterval).
	ProbeInterval time.Duration
	// FailoverLegs caps how many distinct backends one request may try,
	// one after another (0 = DefaultFailoverLegs).
	FailoverLegs int
	// MaxConcurrent and QueueDepth shape the front-door admission
	// controller, one unit per request.
	MaxConcurrent int64
	QueueDepth    int
	// UpstreamTimeout bounds one routed call end to end, every failover
	// leg included (0 = DefaultUpstreamTimeout).
	UpstreamTimeout time.Duration
	// UpstreamAttempts is the resilient client's per-backend attempt
	// budget (0 = DefaultUpstreamAttempts; the router's failover is a
	// separate, cross-backend layer).
	UpstreamAttempts int
	// Logger receives request and probe lines; nil discards them.
	Logger *log.Logger
}

// metrics is the emigre_router_* family set.
type metrics struct {
	requests  map[string]*obs.Counter // by op
	errors    map[string]*obs.Counter // by op (5xx and transport only)
	upReqs    map[string]*obs.Counter // by backend
	upErrs    map[string]*obs.Counter // by backend
	upLat     map[string]*obs.Histogram
	failovers *obs.Counter
}

// Router is the partitioned-serving HTTP front. Build with New, serve
// Handler(), stop the prober with Close.
type Router struct {
	cfg      Config
	ring     *ring
	prober   *prober
	clients  map[string]*client.Client
	adm      *admit.Controller
	reg      *obs.Registry
	log      *log.Logger
	handler  http.Handler
	draining atomic.Bool
	m        metrics
}

// New builds a router over cfg.Backends and starts its health prober.
func New(cfg Config, reg *obs.Registry) (*Router, error) {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	backends := make([]string, 0, len(cfg.Backends))
	for _, b := range cfg.Backends {
		n, err := normalizeBackend(b)
		if err != nil {
			return nil, err
		}
		backends = append(backends, n)
	}
	ring, err := newRing(backends, cfg.VirtualNodes)
	if err != nil {
		return nil, err
	}
	if cfg.FailoverLegs <= 0 {
		cfg.FailoverLegs = DefaultFailoverLegs
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = DefaultMaxConcurrent
	}
	switch {
	case cfg.QueueDepth == 0:
		cfg.QueueDepth = DefaultQueueDepth
	case cfg.QueueDepth < 0:
		cfg.QueueDepth = 0 // no queueing, mirroring server.Config
	}
	if cfg.UpstreamTimeout <= 0 {
		cfg.UpstreamTimeout = DefaultUpstreamTimeout
	}
	if cfg.UpstreamAttempts <= 0 {
		cfg.UpstreamAttempts = DefaultUpstreamAttempts
	}
	logger := cfg.Logger
	if logger == nil {
		logger = log.New(nopWriter{}, "", 0)
	}

	rt := &Router{
		cfg:     cfg,
		ring:    ring,
		prober:  newProber(backends, cfg.ProbeInterval),
		clients: make(map[string]*client.Client, len(backends)),
		adm:     admit.New(cfg.MaxConcurrent, cfg.QueueDepth),
		reg:     reg,
		log:     logger,
	}
	for _, b := range backends {
		c, err := client.New(client.Config{
			BaseURL:     b,
			MaxAttempts: cfg.UpstreamAttempts,
			BaseDelay:   25 * time.Millisecond,
			MaxDelay:    250 * time.Millisecond,
		})
		if err != nil {
			return nil, fmt.Errorf("router: backend %s: %w", b, err)
		}
		rt.clients[b] = c
	}

	rt.m = metrics{
		requests:  map[string]*obs.Counter{},
		errors:    map[string]*obs.Counter{},
		upReqs:    map[string]*obs.Counter{},
		upErrs:    map[string]*obs.Counter{},
		upLat:     map[string]*obs.Histogram{},
		failovers: reg.Counter("emigre_router_failovers_total", "legs launched because an earlier backend failed"),
	}
	for _, op := range []string{opExplain, opRecommend, opDiagnose} {
		rt.m.requests[op] = reg.Counter("emigre_router_requests_total", "routed requests by op", obs.L("op", op))
		rt.m.errors[op] = reg.Counter("emigre_router_errors_total", "routed requests that failed (shed, 5xx or transport) by op", obs.L("op", op))
	}
	for _, b := range backends {
		rt.m.upReqs[b] = reg.Counter("emigre_router_upstream_requests_total", "upstream legs sent by backend", obs.L("backend", b))
		rt.m.upErrs[b] = reg.Counter("emigre_router_upstream_errors_total", "upstream legs that failed by backend", obs.L("backend", b))
		rt.m.upLat[b] = reg.Histogram("emigre_router_upstream_latency_seconds", "upstream leg latency by backend", obs.DefBuckets(), obs.L("backend", b))
	}
	reg.GaugeFunc("emigre_router_ring_size", "backends on the hash ring", func() int64 { return int64(ring.size()) })
	reg.GaugeFunc("emigre_router_unready_backends", "backends whose last readiness probe failed", rt.prober.unreadyCount)
	reg.GaugeFunc("emigre_router_inflight_requests", "requests currently admitted", rt.adm.Used)
	reg.GaugeFunc("emigre_router_queued_requests", "requests waiting for admission", rt.adm.QueueLen)
	rt.adm.Rejections = reg.Counter("emigre_router_rejections_total", "requests shed at the router front door")

	mux := http.NewServeMux()
	mux.HandleFunc("POST /explain", rt.handleExplain)
	mux.HandleFunc("GET /recommend", rt.handleRecommend)
	mux.HandleFunc("POST /diagnose", rt.handleDiagnose)
	mux.HandleFunc("GET /healthz", rt.handleHealth)
	mux.HandleFunc("GET /readyz", rt.handleReady)
	mux.Handle("GET /metrics", obs.Handler(reg))
	rt.handler = rt.withMiddleware(mux)

	rt.prober.start(logger.Printf)
	return rt, nil
}

type nopWriter struct{}

func (nopWriter) Write(p []byte) (int, error) { return len(p), nil }

// normalizeBackend turns "host:port" into "http://host:port" and
// strips any trailing slash, so ring identity and client base agree.
func normalizeBackend(b string) (string, error) {
	b = strings.TrimRight(strings.TrimSpace(b), "/")
	if b == "" {
		return "", fmt.Errorf("router: empty backend address")
	}
	if !strings.Contains(b, "://") {
		b = "http://" + b
	}
	u, err := url.Parse(b)
	if err != nil || u.Host == "" {
		return "", fmt.Errorf("router: bad backend address %q", b)
	}
	return b, nil
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.handler }

// SetDraining flips /readyz to 503; implements server.ReadinessSetter
// so cmd/emigre-router drains with server.DrainOrdered.
func (rt *Router) SetDraining() { rt.draining.Store(true) }

// Close stops the health prober. The handler keeps serving (requests
// in flight during shutdown still need routing decisions).
func (rt *Router) Close() { rt.prober.stop() }

// candidates returns the backends a request keyed by user may try, in
// ring order, ready ones first: the owner and its successors filtered
// by the latest probe verdicts, capped at FailoverLegs. When every
// backend is unready the unfiltered prefix is returned — a stale "all
// down" verdict must degrade to trying, not to refusing.
func (rt *Router) candidates(user string) []string {
	all := rt.ring.successors(user, rt.ring.size())
	ready := make([]string, 0, rt.cfg.FailoverLegs)
	for _, b := range all {
		if rt.prober.isReady(b) {
			ready = append(ready, b)
			if len(ready) == rt.cfg.FailoverLegs {
				return ready
			}
		}
	}
	if len(ready) == 0 {
		if len(all) > rt.cfg.FailoverLegs {
			all = all[:rt.cfg.FailoverLegs]
		}
		return all
	}
	return ready
}

// admitRequest acquires one unit at the front door, writing the 503
// itself on saturation. Callers must invoke the release func on
// admission success.
func (rt *Router) admitRequest(ctx context.Context, w http.ResponseWriter, op string) (func(), bool) {
	err := rt.adm.Acquire(ctx, 1)
	if err == nil {
		acquired := time.Now()
		return func() { rt.adm.ReleaseObserved(1, time.Since(acquired)) }, true
	}
	rt.m.errors[op].Inc()
	if errors.Is(err, admit.ErrSaturated) {
		secs := rt.adm.RetryAfterSeconds()
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeJSON(w, http.StatusServiceUnavailable, client.ErrorBody{
			Error:             "router saturated: too many requests in flight; retry later",
			RetryAfterSeconds: secs,
		})
		return nil, false
	}
	writeError(w, http.StatusGatewayTimeout, "timed out waiting for a routing slot: "+err.Error())
	return nil, false
}

// route runs one single-user op end to end: admission, candidate
// selection, the failed-over upstream call, response mirroring.
// metaOf exposes the answering call's Meta for tally headers.
func (rt *Router) route(w http.ResponseWriter, r *http.Request, op, user string,
	call upstreamCall, metaOf func(v any) client.Meta) {

	rt.m.requests[op].Inc()
	if user == "" {
		writeError(w, http.StatusBadRequest, "user is required")
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.UpstreamTimeout)
	defer cancel()
	ctx = client.WithRequestID(ctx, requestIDFrom(r))

	release, ok := rt.admitRequest(ctx, w, op)
	if !ok {
		return
	}
	defer release()

	backend, v, err := rt.callOwnerFirst(ctx, rt.candidates(user), call)
	if err != nil {
		rt.m.errors[op].Inc()
		status, body := upstreamError(err)
		if body.RetryAfterSeconds > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(body.RetryAfterSeconds))
		}
		writeJSON(w, status, body)
		return
	}
	setUpstreamHeaders(w, backend, metaOf(v))
	writeJSON(w, http.StatusOK, v)
}

func (rt *Router) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req client.ExplainRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		rt.m.requests[opExplain].Inc()
		writeError(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return
	}
	rt.route(w, r, opExplain, req.User,
		func(ctx context.Context, c *client.Client) (any, error) { return c.Explain(ctx, req) },
		func(v any) client.Meta { return v.(*client.ExplainResponse).Meta })
}

func (rt *Router) handleRecommend(w http.ResponseWriter, r *http.Request) {
	user := r.URL.Query().Get("user")
	n := 0
	if s := r.URL.Query().Get("n"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 0 {
			rt.m.requests[opRecommend].Inc()
			writeError(w, http.StatusBadRequest, "bad n: "+s)
			return
		}
		n = v
	}
	rt.route(w, r, opRecommend, user,
		func(ctx context.Context, c *client.Client) (any, error) { return c.Recommend(ctx, user, n) },
		func(v any) client.Meta { return v.(*client.RecommendResponse).Meta })
}

func (rt *Router) handleDiagnose(w http.ResponseWriter, r *http.Request) {
	var req client.DiagnoseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		rt.m.requests[opDiagnose].Inc()
		writeError(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return
	}
	rt.route(w, r, opDiagnose, req.User,
		func(ctx context.Context, c *client.Client) (any, error) { return c.Diagnose(ctx, req) },
		func(v any) client.Meta { return v.(*client.DiagnoseResponse).Meta })
}

func (rt *Router) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReady: the router is ready when it is not draining and at
// least one backend passed its last readiness probe — a router with an
// empty ring cannot serve anything.
func (rt *Router) handleReady(w http.ResponseWriter, _ *http.Request) {
	if rt.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	if int(rt.prober.unreadyCount()) >= rt.ring.size() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no ready backends"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// writeJSON mirrors the server's writer byte for byte: same
// Content-Type, same json.Encoder framing (trailing newline), so a
// routed response is indistinguishable from a direct one.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// The status line is already on the wire: an encode failure here can
	// only truncate the body, which the client's decoder reports.
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, client.ErrorBody{Error: msg})
}

// BackendHeader names the backend that served a routed response —
// debugging aid for shard-affinity questions, excluded from byte
// identity (headers are not the body).
const BackendHeader = "X-Emigre-Backend"

// setUpstreamHeaders propagates the answering backend's wire metadata so
// loadgen session captures record the same tallies through the router
// as they do direct.
func setUpstreamHeaders(w http.ResponseWriter, backend string, meta client.Meta) {
	w.Header().Set(BackendHeader, backend)
	if meta.CacheHits > 0 || meta.CacheMisses > 0 {
		w.Header().Set("X-Emigre-Cache",
			strconv.FormatInt(meta.CacheHits, 10)+"h/"+strconv.FormatInt(meta.CacheMisses, 10)+"m")
	}
}

// Package server exposes the EMiGRe explainer as a small JSON-over-HTTP
// service — the deployment shape a platform team would actually run the
// paper's system in. Endpoints:
//
//	GET  /healthz    liveness probe
//	GET  /readyz     readiness probe (503 while draining for shutdown)
//	GET  /stats      graph shape (the Table-4 rows) as JSON
//	GET  /recommend  ?user=<label|id>&n=10 — the user's top-N list
//	POST /explain    one Why-Not question (single item or group)
//	POST /diagnose   §6.4 meta-explanation for an unanswerable question
//
// Nodes are addressed by label or numeric ID, exactly like the CLI.
//
// Explanation requests are expensive (each one runs full PPR passes),
// so the server applies admission control instead of a global lock: a
// weighted semaphore admits up to MaxConcurrent units of search work,
// up to QueueDepth further requests wait in FIFO order, and anything
// beyond that is rejected immediately with 503 + Retry-After. Every
// explanation also runs under a deadline (ExplainTimeout, optionally
// tightened per request with "timeout_ms"); a search that overruns it
// is canceled mid-PPR and answered with 504. Read endpoints serve
// concurrently and are not gated.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	emigre "github.com/why-not-xai/emigre"
	"github.com/why-not-xai/emigre/internal/admit"
	"github.com/why-not-xai/emigre/internal/cli"
	"github.com/why-not-xai/emigre/internal/fault"
	"github.com/why-not-xai/emigre/internal/obs"
)

// ErrSaturated re-exports the admission controller's saturation
// sentinel under its historical home: the gate moved to internal/admit
// when the router grew its own front door, but server-side callers
// still match on server.ErrSaturated.
var ErrSaturated = admit.ErrSaturated

// Tuning defaults used when the corresponding Config field is zero.
const (
	// DefaultExplainTimeout bounds one explanation request end to end,
	// queue wait included.
	DefaultExplainTimeout = 30 * time.Second
	// DefaultMaxConcurrent is the default admission capacity in units
	// of concurrent search work.
	DefaultMaxConcurrent = 2
	// DefaultQueueDepth is the default number of requests allowed to
	// wait for admission before the server starts shedding load.
	DefaultQueueDepth = 8
)

// statusClientClosedRequest is the nginx convention for "the client
// went away before the response was ready"; there is no standard code.
const statusClientClosedRequest = 499

// Config wires a server to its graph and engine settings.
type Config struct {
	Graph *emigre.Graph
	// Recommender must have been built over Graph.
	Recommender *emigre.Recommender
	// Explainer options (T_e, budgets, ...). Mode/Method fields are
	// ignored: every request names its own.
	Options emigre.Options

	// ExplainTimeout is the per-request deadline for /explain and
	// /diagnose, covering queue wait and search. 0 means
	// DefaultExplainTimeout; negative disables the deadline.
	ExplainTimeout time.Duration
	// MaxConcurrent is the admission capacity: how many units of search
	// work may run at once (a single-item question costs 1, group and
	// category questions cost more). 0 means DefaultMaxConcurrent.
	MaxConcurrent int
	// QueueDepth is how many requests may wait for admission before new
	// ones are rejected with 503. 0 means DefaultQueueDepth; negative
	// disables queueing entirely.
	QueueDepth int
	// CacheEntries bounds the shared PPR-vector cache by entry count.
	// 0 means the pprcache default (4096); negative disables caching.
	CacheEntries int
	// CacheBytes bounds the same cache by resident payload bytes.
	// 0 means the pprcache default (256 MiB); negative disables caching.
	CacheBytes int64
	// DisableDegraded turns off partial answers: a deadline-squeezed
	// explanation then fails with 504 instead of answering with the
	// unverified partial its interrupted search carried (see degrade.go).
	// A response produced within the search's time slice is
	// byte-identical either way.
	DisableDegraded bool
	// Logger receives the per-request log lines and server warnings.
	// Nil means log.Default().
	Logger *log.Logger
	// Metrics is the registry GET /metrics serves and the server's own
	// instrumentation (HTTP, cache, admission, partial answers) registers
	// into. Nil means obs.Default(). The endpoint additionally renders
	// obs.Default() so package-deep metrics (PPR engines) are always
	// covered.
	Metrics *obs.Registry
}

// Server handles the HTTP API. Create with New, mount via Handler.
type Server struct {
	g  *emigre.Graph
	r  *emigre.Recommender
	ex *emigre.Explainer
	// servePartial is !Config.DisableDegraded.
	servePartial bool
	mux          *http.ServeMux
	handler      http.Handler
	// adm gates the expensive counterfactual searches.
	adm      *admit.Controller
	capacity int64
	timeout  time.Duration
	log      *log.Logger
	draining atomic.Bool
	// cache is the shared PPR-vector cache behind /recommend's forward
	// vectors and /explain's searches; nil when disabled by Config.
	cache *emigre.PPRCache
	// metrics is the registry everything below registers into; routes
	// maps known paths to their pre-created HTTP series so the
	// middleware's hot path never touches the registry lock.
	metrics *obs.Registry
	routes  map[string]*routeMetrics
	// partials counts squeezed searches answered with their partial.
	partials *obs.Counter
}

// New builds a server and eagerly warms the recommender's flat
// snapshot so later reads are safe to serve concurrently.
func New(cfg Config) (*Server, error) {
	if cfg.Graph == nil || cfg.Recommender == nil {
		return nil, errors.New("server: graph and recommender are required")
	}
	timeout := cfg.ExplainTimeout
	switch {
	case timeout == 0:
		timeout = DefaultExplainTimeout
	case timeout < 0:
		timeout = 0 // no deadline
	}
	capacity := cfg.MaxConcurrent
	if capacity <= 0 {
		capacity = DefaultMaxConcurrent
	}
	queue := cfg.QueueDepth
	switch {
	case queue == 0:
		queue = DefaultQueueDepth
	case queue < 0:
		queue = 0 // no queueing
	}
	logger := cfg.Logger
	if logger == nil {
		logger = log.Default()
	}
	// The vector cache is shared by the recommender (forward vectors
	// behind /recommend) and the explainer (reverse columns and CHECK
	// scores behind /explain). The recommender is rebound via the
	// WithCache clone constructor so the caller's instance is not
	// mutated (and no struct copy here silently aliases state the
	// Recommender may grow later).
	var cache *emigre.PPRCache
	r := cfg.Recommender
	if cfg.CacheEntries >= 0 && cfg.CacheBytes >= 0 {
		cache = emigre.NewPPRCache(emigre.PPRCacheConfig{
			MaxEntries: cfg.CacheEntries,
			MaxBytes:   cfg.CacheBytes,
		})
		r = r.WithCache(cache)
		cfg.Options.Cache = cache
	} else {
		cfg.Options.DisableCache = true
	}
	metrics := cfg.Metrics
	if metrics == nil {
		metrics = obs.Default()
	}
	s := &Server{
		g:        cfg.Graph,
		r:        r,
		ex:       emigre.NewExplainer(cfg.Graph, r, cfg.Options),
		adm:      admit.New(int64(capacity), queue),
		capacity: int64(capacity),
		timeout:  timeout,
		log:      logger,
		cache:    cache,
		metrics:  metrics,

		servePartial: !cfg.DisableDegraded,
	}
	s.registerMetrics()
	s.r.Flat() // warm the shared snapshot before concurrency starts
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.Handle("GET /metrics", obs.Handler(s.metrics, obs.Default()))
	s.mux.HandleFunc("GET /recommend", s.handleRecommend)
	s.mux.HandleFunc("POST /explain", s.handleExplain)
	s.mux.HandleFunc("POST /diagnose", s.handleDiagnose)
	s.handler = s.withMiddleware(s.mux)
	return s, nil
}

// routeMetrics is one route's pre-created HTTP series: a latency
// histogram and one counter per status class.
type routeMetrics struct {
	duration *obs.Histogram
	// codes is indexed by status/100 - 1 ("1xx" .. "5xx").
	codes [5]*obs.Counter
}

// observe records one served request.
func (m *routeMetrics) observe(status int, elapsed time.Duration) {
	if m == nil {
		return
	}
	m.duration.Observe(elapsed.Seconds())
	class := status/100 - 1
	if class < 0 || class >= len(m.codes) {
		class = 4 // defensive: treat out-of-range statuses as 5xx
	}
	m.codes[class].Inc()
}

// metricRoutes are the route label values of the HTTP series; requests
// outside the route tree are tallied under "other" so unmatched paths
// cannot mint unbounded label values.
var metricRoutes = []string{
	"/healthz", "/readyz", "/stats", "/metrics",
	"/recommend", "/explain", "/diagnose", "other",
}

// registerMetrics creates the server-level series on s.metrics: the
// per-route HTTP layer, callback exports over the tallies the cache and
// the admission controller already keep, and the partial answers.
// Counters and histograms are get-or-create, so servers sharing one
// registry (tests, obs.Default) share series; callbacks re-register by
// replacement, so the newest server owns them.
func (s *Server) registerMetrics() {
	reg := s.metrics
	s.routes = make(map[string]*routeMetrics, len(metricRoutes))
	classes := [5]string{"1xx", "2xx", "3xx", "4xx", "5xx"}
	for _, route := range metricRoutes {
		m := &routeMetrics{
			duration: reg.Histogram("emigre_http_request_duration_seconds",
				"Wall time to serve a request by route.", obs.DefBuckets(),
				obs.L("route", route)),
		}
		for i, class := range classes {
			m.codes[i] = reg.Counter("emigre_http_requests_total",
				"Requests served by route and status class.",
				obs.L("route", route), obs.L("code", class))
		}
		s.routes[route] = m
	}

	if s.cache != nil {
		s.cache.RegisterMetrics(reg)
	}

	s.adm.Rejections = reg.Counter("emigre_admission_rejections_total",
		"Requests shed with 503: queue full on arrival.")
	s.adm.Clamped = reg.Counter("emigre_admission_clamped_weights_total",
		"Admission weights clamped down to capacity (requests wider than the whole gate).")
	reg.GaugeFunc("emigre_admission_inflight_units",
		"Units of search work currently admitted.", s.adm.Used)
	reg.GaugeFunc("emigre_admission_queue_depth",
		"Requests waiting for admission.", s.adm.QueueLen)
	reg.GaugeFunc("emigre_admission_capacity_units",
		"Configured admission capacity.", func() int64 { return s.capacity })

	s.partials = reg.Counter("emigre_degraded_responses_total",
		"Responses served below full fidelity: squeezed searches answered with their unverified partial.",
		obs.L("level", partialLevel))
	fault.RegisterMetrics(reg)
}

// routeFor maps a request path to its metrics entry ("other" for paths
// outside the route tree).
func (s *Server) routeFor(path string) *routeMetrics {
	if m, ok := s.routes[path]; ok {
		return m
	}
	return s.routes["other"]
}

// Handler returns the HTTP handler tree (middleware included).
func (s *Server) Handler() http.Handler { return s.handler }

// SetDraining marks the server as shutting down: /readyz starts
// answering 503 so load balancers stop routing new traffic, while
// in-flight requests keep running until the http.Server drains them.
func (s *Server) SetDraining() { s.draining.Store(true) }

// errorBody is every non-2xx payload. BudgetExhausted marks a "no
// explanation" 404 whose search ran out of CHECK budget rather than out
// of search space: an operator can tell "not found in time" from
// "proved absent" without parsing the message.
type errorBody struct {
	Error           string `json:"error"`
	BudgetExhausted bool   `json:"budget_exhausted,omitempty"`
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := writeSite.Hit(nil); err != nil {
		// Simulated response-write failure. Rendered by hand — not
		// through this function — so an armed site cannot recurse.
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintf(w, "{\"error\":%q}\n", err.Error())
		return
	}
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The status line is already on the wire; all we can do is make
		// the truncated response observable.
		s.log.Printf("writeJSON: encoding %T response: %v", v, err)
	}
}

func (s *Server) writeErr(w http.ResponseWriter, status int, err error) {
	s.writeJSON(w, status, errorBody{
		Error:           err.Error(),
		BudgetExhausted: errors.Is(err, emigre.ErrBudgetExhausted),
	})
}

// statusFor maps library errors to HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, emigre.ErrNotWhyNotItem),
		errors.Is(err, emigre.ErrAlreadyTop),
		errors.Is(err, emigre.ErrEmptyGroup):
		return http.StatusUnprocessableEntity
	case errors.Is(err, emigre.ErrNoExplanation), errors.Is(err, emigre.ErrNoCandidates):
		return http.StatusNotFound
	// Deadline first: a deadline-canceled search wraps both the
	// sentinel and context.DeadlineExceeded.
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, emigre.ErrCanceled), errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	// A failpoint marking a core component unhealthy makes the probe
	// fail, so orchestrators stop routing before request errors surface.
	for _, c := range []struct {
		site *fault.Site
		name string
	}{{healthCacheSite, "cache"}, {healthGraphSite, "graph"}} {
		if c.site.Armed() {
			s.writeJSON(w, http.StatusServiceUnavailable,
				map[string]string{"status": "unhealthy", "component": c.name})
			return
		}
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

type statsRow struct {
	NodeType  string  `json:"node_type"`
	Nodes     int     `json:"nodes"`
	AvgDegree float64 `json:"avg_degree"`
	DegreeStd float64 `json:"degree_std"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	var rows []statsRow
	for _, r := range emigre.DegreeStats(s.g) {
		rows = append(rows, statsRow{
			NodeType:  r.TypeName,
			Nodes:     r.NumNodes,
			AvgDegree: r.AvgDegree,
			DegreeStd: r.DegreeStd,
		})
	}
	body := map[string]any{
		"nodes": s.g.NumNodes(),
		"edges": s.g.NumEdges(),
		"types": rows,
	}
	if s.cache != nil {
		body["cache"] = s.cache.Stats()
	}
	s.writeJSON(w, http.StatusOK, body)
}

type scoredItem struct {
	Node  emigre.NodeID `json:"node"`
	Label string        `json:"label,omitempty"`
	Score float64       `json:"score"`
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	user, err := cli.ResolveNode(s.g, r.URL.Query().Get("user"))
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}
	n := 10
	if raw := r.URL.Query().Get("n"); raw != "" {
		n, err = strconv.Atoi(raw)
		if err != nil || n < 1 {
			s.writeErr(w, http.StatusBadRequest, fmt.Errorf("bad n %q", raw))
			return
		}
	}
	top, err := s.r.TopNContext(r.Context(), user, n)
	if err != nil {
		s.writeErr(w, statusFor(err), err)
		return
	}
	items := make([]scoredItem, len(top))
	for i, sc := range top {
		items[i] = scoredItem{Node: sc.Node, Label: s.g.Label(sc.Node), Score: sc.Score}
	}
	setTallyHeaders(w, r.Context())
	s.writeJSON(w, http.StatusOK, map[string]any{
		"user":  user,
		"items": items,
	})
}

// explainRequest is the /explain body. WNI or Items (group form) must
// be set; Category asks the category granularity. TimeoutMS optionally
// tightens (never widens) the server's ExplainTimeout for this request.
type explainRequest struct {
	User      string   `json:"user"`
	WNI       string   `json:"wni,omitempty"`
	Items     []string `json:"items,omitempty"`
	Category  string   `json:"category,omitempty"`
	Mode      string   `json:"mode"`
	Method    string   `json:"method"`
	TimeoutMS int      `json:"timeout_ms,omitempty"`
}

type edgeBody struct {
	From      emigre.NodeID `json:"from"`
	To        emigre.NodeID `json:"to"`
	ToLabel   string        `json:"to_label,omitempty"`
	EdgeType  string        `json:"edge_type"`
	Weight    float64       `json:"weight"`
	Operation string        `json:"operation"`
}

type explainResponse struct {
	Mode        string        `json:"mode"`
	Method      string        `json:"method"`
	Edges       []edgeBody    `json:"edges"`
	Description string        `json:"description"`
	OldTop      emigre.NodeID `json:"old_top"`
	NewTop      emigre.NodeID `json:"new_top"`
	Verified    bool          `json:"verified"`
	Checks      int           `json:"checks"`
	// Gated is how many of Checks the rival gate rejected without a push;
	// like Checks it is the same for every run of the same question.
	Gated      int   `json:"gated"`
	DurationUS int64 `json:"duration_us"`
	// Degraded marks a response served below full fidelity: the
	// unverified best-effort answer of a search its deadline interrupted.
	// DegradedLevel is then always "partial" and Partial is set.
	Degraded      bool   `json:"degraded"`
	DegradedLevel string `json:"degraded_level,omitempty"`
	Partial       bool   `json:"partial,omitempty"`
}

// searchContext applies the effective deadline for one explanation
// request: the server's ExplainTimeout, tightened by the request's
// timeout_ms when that is stricter.
func (s *Server) searchContext(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	d := s.timeout
	if timeoutMS > 0 {
		if req := time.Duration(timeoutMS) * time.Millisecond; d <= 0 || req < d {
			d = req
		}
	}
	if d <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), d)
}

// saturatedBody is the 503 payload for shed requests: the retry hint
// in the header is mirrored in the body so JSON-only clients see it.
type saturatedBody struct {
	Error             string `json:"error"`
	RetryAfterSeconds int    `json:"retry_after_seconds"`
}

// admit acquires cost units of search capacity, writing the 503 or
// timeout response itself when admission fails. On success the caller
// must invoke the returned release func when the work is done; it
// returns the units and feeds the observed hold time into the
// controller's load estimate (the basis of Retry-After).
func (s *Server) admit(ctx context.Context, w http.ResponseWriter, cost int64) (func(), bool) {
	err := s.adm.Acquire(ctx, cost)
	if err == nil {
		acquired := time.Now()
		return func() { s.adm.ReleaseObserved(cost, time.Since(acquired)) }, true
	}
	if errors.Is(err, ErrSaturated) {
		secs := s.adm.RetryAfterSeconds()
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		s.writeJSON(w, http.StatusServiceUnavailable, saturatedBody{
			Error:             "server saturated: too many concurrent explanations; retry later",
			RetryAfterSeconds: secs,
		})
		return nil, false
	}
	// Context expired while queued.
	s.writeErr(w, statusFor(err), fmt.Errorf("timed out waiting for an explanation slot: %w", err))
	return nil, false
}

// explainCost estimates a request's admission weight: group and
// category questions run one search attempt per member, so they occupy
// more of the capacity (clamped to it).
func (s *Server) explainCost(req explainRequest) int64 {
	switch {
	case req.Category != "":
		return 2
	case len(req.Items) > 0:
		return int64(len(req.Items))
	default:
		return 1
	}
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	// Simulated server-side I/O failure reading the request: a 500, so
	// resilient clients know the request itself was fine and retry.
	if err := decodeSite.Hit(r.Context()); err != nil {
		s.writeErr(w, http.StatusInternalServerError, fmt.Errorf("reading request: %w", err))
		return
	}
	var req explainRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	user, err := cli.ResolveNode(s.g, req.User)
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}
	mode, err := cli.ParseMode(orDefault(req.Mode, "remove"))
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}
	method, err := cli.ParseMethod(orDefault(req.Method, "powerset"))
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}

	// Resolve the question's nodes up front so node errors stay 400s and
	// a malformed question never reaches the search.
	var run explainFn
	switch {
	case req.Category != "":
		cat, rerr := cli.ResolveNode(s.g, req.Category)
		if rerr != nil {
			s.writeErr(w, http.StatusBadRequest, rerr)
			return
		}
		run = func(ctx context.Context) (*emigre.Explanation, error) {
			return s.ex.ExplainCategoryContext(ctx, user, cat, 0, mode, method)
		}
	case len(req.Items) > 0:
		var items []emigre.NodeID
		for _, raw := range req.Items {
			id, rerr := cli.ResolveNode(s.g, raw)
			if rerr != nil {
				s.writeErr(w, http.StatusBadRequest, rerr)
				return
			}
			items = append(items, id)
		}
		run = func(ctx context.Context) (*emigre.Explanation, error) {
			return s.ex.ExplainGroupContext(ctx, emigre.GroupQuery{User: user, Items: items}, mode, method)
		}
	case req.WNI != "":
		wni, rerr := cli.ResolveNode(s.g, req.WNI)
		if rerr != nil {
			s.writeErr(w, http.StatusBadRequest, rerr)
			return
		}
		run = func(ctx context.Context) (*emigre.Explanation, error) {
			return s.ex.ExplainWithContext(ctx, emigre.Query{User: user, WNI: wni}, mode, method)
		}
	default:
		s.writeErr(w, http.StatusBadRequest, errors.New("one of wni, items or category is required"))
		return
	}

	ctx, cancel := s.searchContext(r, req.TimeoutMS)
	defer cancel()
	release, ok := s.admit(ctx, w, s.explainCost(req))
	if !ok {
		return
	}
	defer release()

	expl, err := s.runExplain(ctx, run)
	if err != nil {
		status := statusFor(err)
		if errors.Is(err, cli.ErrNoSuchNode) {
			status = http.StatusBadRequest
		}
		// Surface the partial work tally of a canceled search in the
		// request log (observability for 504s).
		var ce *emigre.CanceledError
		if errors.As(err, &ce) {
			recordTests(r.Context(), ce.Stats)
		}
		s.writeErr(w, status, err)
		return
	}
	recordTests(r.Context(), expl.Stats)
	setTallyHeaders(w, r.Context())

	desc := expl.Describe(s.g)
	if expl.Partial {
		desc += " (unverified partial explanation: the search was interrupted before CHECK confirmed it)"
	}
	resp := explainResponse{
		Mode:        expl.Mode.String(),
		Method:      expl.Method.String(),
		Description: desc,
		OldTop:      expl.OldTop,
		NewTop:      expl.NewTop,
		Verified:    expl.Verified,
		Checks:      expl.Stats.Tests,
		Gated:       expl.Stats.Gated,
		DurationUS:  expl.Stats.Duration.Microseconds(),
	}
	if expl.Partial {
		resp.Degraded = true
		resp.DegradedLevel = partialLevel
		resp.Partial = true
		w.Header().Set("X-Emigre-Degraded", partialLevel)
		s.partials.Inc()
	}
	appendEdges := func(edges []emigre.Edge, op string) {
		for _, e := range edges {
			resp.Edges = append(resp.Edges, edgeBody{
				From:      e.From,
				To:        e.To,
				ToLabel:   s.g.Label(e.To),
				EdgeType:  s.g.Types().EdgeTypeName(e.Type),
				Weight:    e.Weight,
				Operation: op,
			})
		}
	}
	appendEdges(expl.Removals, "remove")
	appendEdges(expl.Additions, "add")
	appendEdges(expl.Reweights, "reweight")
	s.writeJSON(w, http.StatusOK, resp)
}

type diagnoseRequest struct {
	User      string `json:"user"`
	WNI       string `json:"wni"`
	Mode      string `json:"mode"`
	TimeoutMS int    `json:"timeout_ms,omitempty"`
}

func (s *Server) handleDiagnose(w http.ResponseWriter, r *http.Request) {
	var req diagnoseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	user, err := cli.ResolveNode(s.g, req.User)
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}
	wni, err := cli.ResolveNode(s.g, req.WNI)
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}
	mode, err := cli.ParseMode(orDefault(req.Mode, "remove"))
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := s.searchContext(r, req.TimeoutMS)
	defer cancel()
	// A diagnosis probes every mode with Exhaustive, comparable to a
	// small group query.
	const diagnoseCost = 2
	release, ok := s.admit(ctx, w, diagnoseCost)
	if !ok {
		return
	}
	defer release()
	d, err := s.ex.DiagnoseContext(ctx, emigre.Query{User: user, WNI: wni}, mode)
	if err != nil {
		var ce *emigre.CanceledError
		if errors.As(err, &ce) {
			recordTests(r.Context(), ce.Stats)
		}
		s.writeErr(w, statusFor(err), err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"kind":         d.Kind.String(),
		"detail":       d.Detail,
		"actions":      d.Actions,
		"working_mode": d.WorkingMode.String(),
	})
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// Package client is a resilient Go client for the emigre-server HTTP
// API. It retries transient failures with capped exponential backoff
// and full jitter, honors Retry-After hints from the server's admission
// controller, derives per-attempt timeouts from the caller's overall
// deadline, and surfaces degraded responses (the server's unverified
// partial answers) explicitly rather than hiding them.
//
// The retry policy is idempotency-aware: 429 and 503 are always safe to
// retry (the request was never admitted), while transport errors and
// 5xx responses are retried only for idempotent calls — every built-in
// endpoint is a pure read over the graph, so all of them qualify, but
// the classification is explicit so future mutating endpoints default
// to the safe side.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

const (
	// bodyLimit caps how much of a response body one attempt decodes;
	// real payloads are far smaller, and the cap keeps a misbehaving
	// server from ballooning client memory.
	bodyLimit = 1 << 20
	// drainLimit bounds the pre-Close drain of leftover body bytes that
	// keeps the keep-alive connection reusable. Bodies with more than
	// this left over are abandoned: re-dialing is cheaper than reading
	// them out.
	drainLimit = 256 << 10
)

// Defaults used when the corresponding Config field is zero.
const (
	// DefaultMaxAttempts bounds one logical call: the first attempt plus
	// up to three retries.
	DefaultMaxAttempts = 4
	// DefaultBaseDelay seeds the exponential backoff schedule.
	DefaultBaseDelay = 100 * time.Millisecond
	// DefaultMaxDelay caps a single backoff sleep.
	DefaultMaxDelay = 5 * time.Second
)

// Config wires a Client to a server.
type Config struct {
	// BaseURL is the server root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTPClient is the transport to use; nil means a dedicated
	// http.Client with no client-level timeout (deadlines come from the
	// per-call context and the per-attempt derivation).
	HTTPClient *http.Client
	// MaxAttempts bounds attempts per call (first try included).
	// 0 means DefaultMaxAttempts; 1 disables retries.
	MaxAttempts int
	// BaseDelay is the first backoff delay; doubles each retry.
	// 0 means DefaultBaseDelay.
	BaseDelay time.Duration
	// MaxDelay caps each backoff delay (before jitter).
	// 0 means DefaultMaxDelay.
	MaxDelay time.Duration
	// PerAttemptTimeout bounds each individual attempt. 0 derives the
	// bound from the context deadline instead: remaining budget divided
	// by attempts left, so early attempts cannot eat the whole budget
	// and the last attempt gets everything that remains.
	PerAttemptTimeout time.Duration
}

// Client calls the emigre-server API. Safe for concurrent use.
type Client struct {
	base    string
	http    *http.Client
	max     int
	baseDel time.Duration
	maxDel  time.Duration
	perTry  time.Duration

	attempts  atomic.Int64
	retries   atomic.Int64
	degraded  atomic.Int64
	retryWait atomic.Int64 // total nanoseconds slept between attempts
}

// New builds a client for the server at cfg.BaseURL.
func New(cfg Config) (*Client, error) {
	base := strings.TrimRight(cfg.BaseURL, "/")
	if base == "" {
		return nil, fmt.Errorf("client: BaseURL is required")
	}
	if _, err := url.Parse(base); err != nil {
		return nil, fmt.Errorf("client: bad BaseURL: %w", err)
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	c := &Client{
		base:    base,
		http:    hc,
		max:     cfg.MaxAttempts,
		baseDel: cfg.BaseDelay,
		maxDel:  cfg.MaxDelay,
		perTry:  cfg.PerAttemptTimeout,
	}
	if c.max <= 0 {
		c.max = DefaultMaxAttempts
	}
	if c.baseDel <= 0 {
		c.baseDel = DefaultBaseDelay
	}
	if c.maxDel <= 0 {
		c.maxDel = DefaultMaxDelay
	}
	return c, nil
}

// Stats is a snapshot of the client's lifetime retry behavior.
type Stats struct {
	// Attempts counts HTTP attempts, first tries included.
	Attempts int64 `json:"attempts"`
	// Retries counts attempts beyond the first of each call.
	Retries int64 `json:"retries"`
	// Degraded counts successful explanations served below full
	// fidelity (response had "degraded": true).
	Degraded int64 `json:"degraded"`
	// RetryWait is the total time spent sleeping between attempts.
	RetryWait time.Duration `json:"retry_wait_ns"`
}

// Stats returns a snapshot of the client's counters.
func (c *Client) Stats() Stats {
	return Stats{
		Attempts:  c.attempts.Load(),
		Retries:   c.retries.Load(),
		Degraded:  c.degraded.Load(),
		RetryWait: time.Duration(c.retryWait.Load()),
	}
}

// APIError is a non-2xx response from the server.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Message is the server's error string (or raw body when not JSON).
	Message string
	// RetryAfter is the server's retry hint, 0 when absent.
	RetryAfter time.Duration
	// BudgetExhausted is set on a "no explanation" 404 whose search ran
	// out of CHECK budget before it ran out of search space. Either way
	// the answer is definitive for this server configuration and is not
	// retried.
	BudgetExhausted bool
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.Status, e.Message)
}

// Edge is one counterfactual edit of an explanation.
type Edge struct {
	From      int64   `json:"from"`
	To        int64   `json:"to"`
	ToLabel   string  `json:"to_label,omitempty"`
	EdgeType  string  `json:"edge_type"`
	Weight    float64 `json:"weight"`
	Operation string  `json:"operation"`
}

// ExplainRequest is one Why-Not question. Exactly one of WNI, Items or
// Category must be set.
type ExplainRequest struct {
	User      string   `json:"user"`
	WNI       string   `json:"wni,omitempty"`
	Items     []string `json:"items,omitempty"`
	Category  string   `json:"category,omitempty"`
	Mode      string   `json:"mode,omitempty"`
	Method    string   `json:"method,omitempty"`
	TimeoutMS int      `json:"timeout_ms,omitempty"`
}

// ExplainResponse mirrors the server's /explain payload, degraded
// marks included.
type ExplainResponse struct {
	Mode        string `json:"mode"`
	Method      string `json:"method"`
	Edges       []Edge `json:"edges"`
	Description string `json:"description"`
	OldTop      int64  `json:"old_top"`
	NewTop      int64  `json:"new_top"`
	Verified    bool   `json:"verified"`
	Checks      int    `json:"checks"`
	// Gated is how many of Checks were rejected without a PPR push.
	Gated      int   `json:"gated"`
	DurationUS int64 `json:"duration_us"`
	// Degraded is true when the server served this response below full
	// fidelity: DegradedLevel is then "partial" and Partial flags the
	// unverified best-effort answer of an interrupted search.
	Degraded      bool   `json:"degraded"`
	DegradedLevel string `json:"degraded_level,omitempty"`
	Partial       bool   `json:"partial,omitempty"`
	// Meta carries wire metadata (correlation ID, cache/par tallies,
	// attempt count); it is not part of the JSON payload.
	Meta Meta `json:"-"`
}

// ScoredItem is one entry of a recommendation list.
type ScoredItem struct {
	Node  int64   `json:"node"`
	Label string  `json:"label,omitempty"`
	Score float64 `json:"score"`
}

// RecommendResponse is the /recommend payload. Field order matches the
// server's wire order (alphabetical — it encodes via a map), so a
// decode→re-encode round trip through the router is byte-identical.
type RecommendResponse struct {
	Items []ScoredItem `json:"items"`
	User  int64        `json:"user"`
	// Meta carries wire metadata; not part of the JSON payload.
	Meta Meta `json:"-"`
}

// DiagnoseRequest asks why a Why-Not question is unanswerable.
type DiagnoseRequest struct {
	User      string `json:"user"`
	WNI       string `json:"wni"`
	Mode      string `json:"mode,omitempty"`
	TimeoutMS int    `json:"timeout_ms,omitempty"`
}

// DiagnoseResponse is the /diagnose payload. Field order matches the
// server's wire order (alphabetical — it encodes via a map), so a
// decode→re-encode round trip through the router is byte-identical.
type DiagnoseResponse struct {
	// Actions is the number of past user actions Remove mode can edit.
	Actions     int    `json:"actions"`
	Detail      string `json:"detail"`
	Kind        string `json:"kind"`
	WorkingMode string `json:"working_mode"`
	// Meta carries wire metadata; not part of the JSON payload.
	Meta Meta `json:"-"`
}

// Explain asks one Why-Not question, retrying transient failures.
func (c *Client) Explain(ctx context.Context, req ExplainRequest) (*ExplainResponse, error) {
	var out ExplainResponse
	// Pure read: no server state changes, so retrying is safe even
	// after an ambiguous transport failure.
	if err := c.do(ctx, http.MethodPost, "/explain", nil, req, &out, true, &out.Meta); err != nil {
		return nil, err
	}
	if out.Degraded {
		c.degraded.Add(1)
	}
	return &out, nil
}

// Recommend fetches the user's top-n list.
func (c *Client) Recommend(ctx context.Context, user string, n int) (*RecommendResponse, error) {
	q := url.Values{"user": {user}}
	if n > 0 {
		q.Set("n", fmt.Sprint(n))
	}
	var out RecommendResponse
	if err := c.do(ctx, http.MethodGet, "/recommend", q, nil, &out, true, &out.Meta); err != nil {
		return nil, err
	}
	return &out, nil
}

// Diagnose asks for the §6.4 meta-explanation of an unanswerable
// question.
func (c *Client) Diagnose(ctx context.Context, req DiagnoseRequest) (*DiagnoseResponse, error) {
	var out DiagnoseResponse
	if err := c.do(ctx, http.MethodPost, "/diagnose", nil, req, &out, true, &out.Meta); err != nil {
		return nil, err
	}
	return &out, nil
}

// Ready reports whether the server is ready to take traffic.
func (c *Client) Ready(ctx context.Context) error {
	var out struct {
		Status string `json:"status"`
	}
	return c.do(ctx, http.MethodGet, "/readyz", nil, nil, &out, true, nil)
}

// do runs one logical API call: marshal, attempt, classify, back off,
// repeat. body (when non-nil) is marshalled once and replayed per
// attempt; out (when non-nil) receives the decoded 2xx payload; meta
// (when non-nil) receives the call's correlation ID, attempt count and
// server tally headers. Every attempt of the call carries the same
// X-Emigre-Request-Id so server-side captures can group retries.
func (c *Client) do(ctx context.Context, method, path string, query url.Values, body, out any, idempotent bool, meta *Meta) error {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
	}
	u := c.base + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	rid := requestID(ctx)
	if meta != nil {
		meta.RequestID = rid
	}

	var lastErr error
	for attempt := 0; attempt < c.max; attempt++ {
		if attempt > 0 {
			delay := c.backoff(attempt, lastErr)
			if err := c.sleep(ctx, delay); err != nil {
				return fmt.Errorf("client: giving up after %d attempt(s): %w (last error: %v)",
					attempt, err, lastErr)
			}
			c.retries.Add(1)
		}
		c.attempts.Add(1)
		if meta != nil {
			meta.Attempts = attempt + 1
		}

		err := c.attempt(ctx, method, u, rid, payload, out, meta, attempt)
		if err == nil {
			return nil
		}
		lastErr = err
		if !Retryable(err, idempotent) {
			return err
		}
	}
	return fmt.Errorf("client: giving up after %d attempt(s): %w", c.max, lastErr)
}

// attempt runs one HTTP round trip under the derived per-attempt
// deadline and maps non-2xx statuses to *APIError.
func (c *Client) attempt(ctx context.Context, method, u, rid string, payload []byte, out any, meta *Meta, attempt int) error {
	actx, cancel := c.attemptContext(ctx, attempt)
	defer cancel()
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(actx, method, u, rd)
	if err != nil {
		return fmt.Errorf("client: building request: %w", err)
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set(RequestIDHeader, rid)
	req.Header.Set(AttemptHeader, strconv.Itoa(attempt+1))
	resp, err := c.http.Do(req)
	if err != nil {
		// Prefer the caller's context error over the derived attempt
		// deadline so "overall budget exhausted" is not misreported as a
		// transient transport failure.
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return &transportError{err: err}
	}
	// Drain whatever the read below left behind (bounded) before Close:
	// a body closed with unread bytes forfeits the keep-alive
	// connection, so every retry — and every router fan-out leg — would
	// open a fresh TCP connection. Past drainLimit, dropping the
	// connection is cheaper than reading an unbounded body to EOF.
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, drainLimit))
		resp.Body.Close()
	}()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, bodyLimit))
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return &transportError{err: fmt.Errorf("reading response: %w", err)}
	}
	// Fill meta from whatever response arrived — failed calls still
	// carry the echoed correlation ID for session logs.
	meta.fill(resp.Header)
	if resp.StatusCode/100 != 2 {
		return newAPIError(resp, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("client: decoding %d response: %w", resp.StatusCode, err)
		}
	}
	return nil
}

// attemptContext derives the deadline for one attempt: the configured
// PerAttemptTimeout when set, otherwise the remaining overall budget
// divided by the attempts left (so a hung attempt cannot starve its
// successors, and the final attempt gets all remaining time).
func (c *Client) attemptContext(ctx context.Context, attempt int) (context.Context, context.CancelFunc) {
	if c.perTry > 0 {
		return context.WithTimeout(ctx, c.perTry)
	}
	deadline, ok := ctx.Deadline()
	if !ok {
		return context.WithCancel(ctx)
	}
	left := c.max - attempt
	if left < 1 {
		left = 1
	}
	slice := time.Until(deadline) / time.Duration(left)
	if slice <= 0 {
		// Budget already spent: let the attempt fail on the parent.
		return context.WithCancel(ctx)
	}
	return context.WithTimeout(ctx, slice)
}

// ErrorBody is the JSON payload of every non-2xx response, as this
// package decodes it and as a proxy relaying an *APIError (the router)
// writes it back out: budget_exhausted marks a "no explanation" 404 cut
// short by the CHECK budget, retry_after_seconds repeats a shed
// server's Retry-After hint.
type ErrorBody struct {
	Error             string `json:"error"`
	BudgetExhausted   bool   `json:"budget_exhausted,omitempty"`
	RetryAfterSeconds int    `json:"retry_after_seconds,omitempty"`
}

// newAPIError builds an *APIError from a non-2xx response, parsing the
// JSON error body and any Retry-After header.
func newAPIError(resp *http.Response, raw []byte) *APIError {
	e := &APIError{Status: resp.StatusCode}
	var body ErrorBody
	if json.Unmarshal(raw, &body) == nil && body.Error != "" {
		e.Message = body.Error
		e.BudgetExhausted = body.BudgetExhausted
	} else {
		e.Message = strings.TrimSpace(string(raw))
	}
	if e.Message == "" {
		e.Message = http.StatusText(resp.StatusCode)
	}
	e.RetryAfter = parseRetryAfter(resp.Header.Get("Retry-After"))
	if e.RetryAfter == 0 && body.RetryAfterSeconds > 0 {
		e.RetryAfter = time.Duration(body.RetryAfterSeconds) * time.Second
	}
	return e
}

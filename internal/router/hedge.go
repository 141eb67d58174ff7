package router

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"github.com/why-not-xai/emigre/client"
)

// legResult is one upstream attempt's outcome.
type legResult struct {
	backend string
	val     any
	err     error
	took    time.Duration
	hedged  bool // true when this leg was launched by the hedge timer
}

// raceUpstream runs call against candidates with hedging and failover:
//
//   - leg 1 goes to candidates[0] (the shard owner) immediately;
//   - if it has not answered after the hedge delay, leg 2 goes to the
//     ring successor (first response wins, the loser's context is
//     canceled — the hedge);
//   - if a leg fails with a shed/transport error, the next unlaunched
//     candidate is tried immediately (failover);
//   - a definitive upstream answer (2xx, or a 4xx the backend meant)
//     wins instantly and cancels everything else.
//
// Hedging is idempotency-aware exactly like client/retry.go: only
// idempotent calls hedge or fail over on ambiguous errors; for
// non-idempotent calls, only 429/503 (request provably never admitted)
// move to another backend. All built-in ops are pure reads, so they
// all hedge; the flag keeps future mutating endpoints on the safe
// side.
//
// The returned legResult carries the winning backend; err is non-nil
// only when every launched leg failed, and is then the most
// informative of the leg errors (an *client.APIError preferred over a
// transport error, so the caller can mirror the upstream status).
func (rt *Router) raceUpstream(ctx context.Context, op string, candidates []string,
	idempotent bool, call func(ctx context.Context, backend string) (any, error)) legResult {

	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // reclaims every losing leg's request context

	if !idempotent {
		candidates = candidates[:1]
	}
	results := make(chan legResult, len(candidates)) // buffered: losers never block
	launched := 0
	launch := func(hedged bool) {
		b := candidates[launched]
		launched++
		start := time.Now()
		go func() {
			v, err := call(ctx, b)
			results <- legResult{backend: b, val: v, err: err, took: time.Since(start), hedged: hedged}
		}()
	}
	launch(false)

	hedge := time.NewTimer(rt.hedgeDelayFor(op))
	defer hedge.Stop()

	var lastErr legResult
	lastErr.err = errors.New("router: no upstream attempted")
	for done := 0; done < launched; {
		select {
		case <-ctx.Done():
			return legResult{err: ctx.Err()}
		case <-hedge.C:
			if launched < len(candidates) {
				rt.m.hedges.Inc()
				launch(true)
			}
		case res := <-results:
			done++
			if res.err == nil {
				if res.hedged {
					rt.m.hedgeWins.Inc()
				}
				return res
			}
			lastErr = pickErr(lastErr, res)
			// One classification for both tiers: what the client would
			// retry against the same server, the router moves to the next
			// backend; everything else (4xx, decode errors) is the answer.
			if !client.Retryable(res.err, idempotent) {
				return res
			}
			if launched < len(candidates) {
				rt.m.failovers.Inc()
				launch(false)
			}
		}
	}
	return lastErr
}

// pickErr keeps the most informative failure: an upstream *APIError
// (carrying a real status to mirror) beats a transport error, and
// later errors beat earlier ones within a class.
func pickErr(prev, next legResult) legResult {
	var prevAPI, nextAPI *client.APIError
	prevIs := errors.As(prev.err, &prevAPI)
	nextIs := errors.As(next.err, &nextAPI)
	if prevIs && !nextIs {
		return prev
	}
	return next
}

// hedgeDelayFor returns the hedge trigger for op: the configured fixed
// delay when set, else the per-op adaptive p95.
func (rt *Router) hedgeDelayFor(op string) time.Duration {
	if rt.cfg.HedgeAfter > 0 {
		return rt.cfg.HedgeAfter
	}
	return rt.latencyFor(op).hedgeDelay()
}

// upstreamError converts a terminal legResult into the HTTP response
// the router owes its client: upstream API errors mirror their status,
// message and marks, so a routed failure reads like a direct one;
// transport-level failures become 502.
func upstreamError(res legResult) (int, client.ErrorBody) {
	var apiErr *client.APIError
	if errors.As(res.err, &apiErr) {
		return apiErr.Status, client.ErrorBody{
			Error:             apiErr.Message,
			BudgetExhausted:   apiErr.BudgetExhausted,
			RetryAfterSeconds: int(apiErr.RetryAfter / time.Second),
		}
	}
	if errors.Is(res.err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout, client.ErrorBody{Error: "upstream deadline exceeded"}
	}
	return http.StatusBadGateway, client.ErrorBody{Error: fmt.Sprintf("no backend available: %v", res.err)}
}

package router

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"github.com/why-not-xai/emigre/client"
)

// upstreamCall asks one backend's client one question.
type upstreamCall func(ctx context.Context, c *client.Client) (any, error)

// callOwnerFirst asks candidates one after another, the shard owner
// first, and returns the first answer with the backend that gave it.
// It moves to the next candidate only on a failure client.Retryable
// would retry against the same server (a shed, a 5xx, a transport
// error), counting each move in emigre_router_failovers_total; any
// other outcome (a 2xx, a 4xx the backend meant, a body that does not
// decode) is the answer.
//
// err is non-nil only when no candidate answered, and is then the most
// informative of the failures (an *client.APIError preferred over a
// transport error, so the caller can mirror the upstream status), or
// the context's error once the routed call's deadline has passed.
func (rt *Router) callOwnerFirst(ctx context.Context, candidates []string, call upstreamCall) (string, any, error) {
	lastErr := errors.New("router: no upstream attempted")
	for i, b := range candidates {
		if i > 0 {
			rt.m.failovers.Inc()
		}
		rt.m.upReqs[b].Inc()
		start := time.Now()
		v, err := call(ctx, rt.clients[b])
		rt.m.upLat[b].Observe(time.Since(start).Seconds())
		if err == nil {
			return b, v, nil
		}
		rt.m.upErrs[b].Inc()
		if !client.Retryable(err) {
			return "", nil, err
		}
		if ctx.Err() != nil {
			return "", nil, ctx.Err()
		}
		lastErr = pickErr(lastErr, err)
	}
	return "", nil, lastErr
}

// pickErr keeps the most informative failure: an upstream *APIError
// (carrying a real status to mirror) beats a transport error, and
// later errors beat earlier ones within a class.
func pickErr(prev, next error) error {
	var prevAPI, nextAPI *client.APIError
	if errors.As(prev, &prevAPI) && !errors.As(next, &nextAPI) {
		return prev
	}
	return next
}

// upstreamError converts a terminal upstream failure into the HTTP
// response the router owes its client: upstream API errors mirror their
// status, message and marks, so a routed failure reads like a direct
// one; transport-level failures become 502.
func upstreamError(err error) (int, client.ErrorBody) {
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		return apiErr.Status, client.ErrorBody{
			Error:             apiErr.Message,
			BudgetExhausted:   apiErr.BudgetExhausted,
			RetryAfterSeconds: int(apiErr.RetryAfter / time.Second),
		}
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout, client.ErrorBody{Error: "upstream deadline exceeded"}
	}
	return http.StatusBadGateway, client.ErrorBody{Error: fmt.Sprintf("no backend available: %v", err)}
}

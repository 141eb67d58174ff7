package client

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"strconv"
	"time"
)

// transportError wraps a failed round trip (connection refused, reset,
// attempt deadline).
type transportError struct{ err error }

func (e *transportError) Error() string { return "client: " + e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

// jitter supplies the uniform draw for backoff jitter; a variable so
// tests can pin it.
var jitter = rand.Float64

// Retryable classifies an attempt error: whether sending the same
// request again — to this server or, at the router tier, to another
// backend — can change the outcome.
//
//   - 429 and 503: the server shed the request before doing any work.
//   - Transport errors and 500/502/504: the attempt failed on its way,
//     and every call is a pure read, so resending is safe.
//   - Everything else (4xx, decode errors, context expiry) is
//     definitive: retrying cannot change the answer.
func Retryable(err error) bool {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		switch apiErr.Status {
		case http.StatusTooManyRequests, http.StatusServiceUnavailable,
			http.StatusInternalServerError, http.StatusBadGateway, http.StatusGatewayTimeout:
			return true
		default:
			return false
		}
	}
	var tErr *transportError
	return errors.As(err, &tErr)
}

// backoff computes the sleep before retry number attempt (1-based):
// capped exponential with full jitter — delay ∈ [0, min(MaxDelay,
// BaseDelay·2^(attempt-1))) — so synchronized clients spread out. A
// Retry-After hint from the server overrides the schedule (the
// admission controller knows the queue better than any client-side
// guess), still jittered upward by as much as one BaseDelay so shed
// clients do not return in lockstep.
func (c *Client) backoff(attempt int, lastErr error) time.Duration {
	var apiErr *APIError
	if errors.As(lastErr, &apiErr) && apiErr.RetryAfter > 0 {
		return apiErr.RetryAfter + time.Duration(jitter()*float64(c.baseDel))
	}
	ceil := c.baseDel << (attempt - 1)
	if ceil > c.maxDel || ceil <= 0 { // <= 0: shift overflow
		ceil = c.maxDel
	}
	return time.Duration(jitter() * float64(ceil))
}

// sleep waits for d or until the context expires, whichever is first,
// and tallies the time actually slept.
func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	// Never sleep past the overall deadline: if the budget cannot cover
	// the wait plus any useful attempt, give up now instead of timing
	// out mid-sleep.
	if deadline, ok := ctx.Deadline(); ok && time.Until(deadline) <= d {
		return context.DeadlineExceeded
	}
	t := time.NewTimer(d)
	defer t.Stop()
	start := time.Now()
	select {
	case <-t.C:
		c.retryWait.Add(int64(time.Since(start)))
		return nil
	case <-ctx.Done():
		c.retryWait.Add(int64(time.Since(start)))
		return ctx.Err()
	}
}

// parseRetryAfter parses a Retry-After header: either delta-seconds or
// an HTTP-date. Unparseable or negative values yield 0 (no hint).
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(v); err == nil {
		if d := time.Until(at); d > 0 {
			return d
		}
	}
	return 0
}

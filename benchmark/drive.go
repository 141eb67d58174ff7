package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/why-not-xai/emigre/client"
)

// outcome is how one op ended, in the paper's terms where it has them.
type outcome string

const (
	// outAnswered: 200 with full-fidelity content.
	outAnswered outcome = "answered"
	// outNoExplanation: the search space holds no explanation (HTTP 404
	// from /explain). With answered it forms the denominator of the
	// paper's success rate; it is not a failure.
	outNoExplanation outcome = "no-explanation"
	// outShed: refused by admission (429/503) on every attempt.
	outShed outcome = "shed"
	// outTimedOut: 504, 499 or the op's own deadline.
	outTimedOut outcome = "timed-out"
	// outFault: transport error, another 5xx, or a 4xx no workload
	// should provoke.
	outFault outcome = "fault"
	// outDegraded: 200, but served below full fidelity by the ladder.
	outDegraded outcome = "degraded"
)

// failed reports whether the outcome counts against failed_ratio. A
// failed op has no latency: percentiles rank it as +Inf.
func (o outcome) failed() bool { return o != outAnswered && o != outNoExplanation }

// result is what one op returned.
type result struct {
	outcome outcome
	err     error
	answer  answer
	// edges, newTop, verified and checks echo an answered explain.
	edges      []client.Edge
	newTop     int64
	verified   bool
	checks     int
	durationUS int64
	// latency runs from the op's due time (open loop) or send time
	// (closed loop) to its answer; late is how long after its due time
	// an open-loop op was sent.
	latency, late time.Duration
}

// classify maps a client error to an outcome.
func classify(kind string, err error) outcome {
	var api *client.APIError
	switch {
	case err == nil:
		return outAnswered
	case errors.As(err, &api):
		switch api.Status {
		case http.StatusNotFound:
			if kind == opExplain {
				return outNoExplanation
			}
			return outFault
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			return outShed
		case http.StatusGatewayTimeout, 499:
			return outTimedOut
		default:
			return outFault
		}
	case errors.Is(err, context.DeadlineExceeded):
		return outTimedOut
	default:
		return outFault
	}
}

// call sends one op through the public client and reduces the response
// to a result. Latency fields are the caller's to fill.
func call(ctx context.Context, c *client.Client, o op) result {
	switch o.Kind {
	case opRecommend:
		resp, err := c.Recommend(ctx, o.User, recommendN)
		r := result{outcome: classify(o.Kind, err), err: err}
		if err == nil {
			r.answer.Status = statusAnswered
			for _, it := range resp.Items {
				r.answer.Items = append(r.answer.Items, it.Label)
			}
		}
		return r
	case opDiagnose:
		resp, err := c.Diagnose(ctx, client.DiagnoseRequest{User: o.User, WNI: o.WNI, Mode: o.Mode})
		r := result{outcome: classify(o.Kind, err), err: err}
		if err == nil {
			r.answer = answer{Status: statusAnswered, Diagnosis: diagnosisName(resp.Kind, resp.WorkingMode, resp.Actions)}
		}
		return r
	default:
		resp, err := c.Explain(ctx, client.ExplainRequest{User: o.User, WNI: o.WNI, Mode: o.Mode, Method: o.Method})
		r := result{outcome: classify(o.Kind, err), err: err}
		switch r.outcome {
		case outNoExplanation:
			r.answer.Status = statusNoExplanation
		case outAnswered:
			if resp.Degraded || resp.Partial {
				r.outcome = outDegraded
			}
			r.answer.Status = statusAnswered
			for _, e := range resp.Edges {
				r.answer.Edges = append(r.answer.Edges, edgeName(e.ToLabel, e.EdgeType))
			}
			r.edges, r.newTop, r.verified = resp.Edges, resp.NewTop, resp.Verified
			r.checks, r.durationUS = resp.Checks, resp.DurationUS
		}
		return r
	}
}

// send is call with, when tr is set, a client.call span around it; the
// op's index becomes the request ID that ties the spans of the layers
// below to it.
func send(ctx context.Context, c *client.Client, i int, o op, tr *tracer) result {
	if tr == nil {
		return call(ctx, c, o)
	}
	rid := requestID(i)
	start := time.Now()
	r := call(client.WithRequestID(ctx, rid), c, o)
	tr.record(spanClient, rid, start, time.Now())
	return r
}

func requestID(i int) string { return fmt.Sprintf("op-%06d", i) }

// closedClients is the number of callers (and connections) of a closed
// loop. It matches the server's -max-concurrent default and the two
// processors the workload sizes were taken on.
const closedClients = 2

// openConns bounds the open loop's connection pool. Independent users
// do not share connections; the bound only keeps a stalled system from
// exhausting descriptors, and is far above what the arrival rate needs.
const openConns = 64

// newClient builds a public client over its own connection pool of at
// most conns connections.
func newClient(base string, conns int) (*client.Client, error) {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = conns
	tr.MaxConnsPerHost = conns
	return client.New(client.Config{BaseURL: base, HTTPClient: &http.Client{Transport: tr}})
}

// drive sends ops to the server at base over fresh connections - an
// open loop on its schedule, a closed one through closedClients callers
// - and returns what came back, how long the phase took until the last
// answer, and how often the clients retried.
func drive(ctx context.Context, base string, open bool, ops []op, tr *tracer) ([]result, time.Duration, int64, error) {
	conns := 1
	if open {
		conns = openConns
	}
	clients := make([]*client.Client, closedClients)
	for i := range clients {
		var err error
		if clients[i], err = newClient(base, conns); err != nil {
			return nil, 0, 0, err
		}
	}
	start := time.Now()
	var results []result
	if open {
		results = runOpen(ctx, clients[0], ops, tr)
	} else {
		results = runClosed(ctx, clients, ops, tr)
	}
	wall := time.Since(start)
	var retries int64
	for _, c := range clients {
		retries += c.Stats().Retries
	}
	return results, wall, retries, nil
}

// forEach calls f(i) for every i below n from closedClients goroutines
// and returns when all calls have.
func forEach(n int, f func(i int)) {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := 0; w < closedClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// runClosed has one caller per client work through ops in order, each
// waiting for its answer before taking the next op.
func runClosed(ctx context.Context, clients []*client.Client, ops []op, tr *tracer) []result {
	results := make([]result, len(ops))
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(ops); i = int(next.Add(1)) - 1 {
				sent := time.Now()
				r := send(ctx, c, i, ops[i], tr)
				r.latency = time.Since(sent)
				results[i] = r
			}
		}()
	}
	wg.Wait()
	return results
}

// runOpen sends each op at its due time whether or not earlier answers
// came back, and times it from that due time: a stall is charged to
// every op that had to wait behind it.
func runOpen(ctx context.Context, c *client.Client, ops []op, tr *tracer) []result {
	results := make([]result, len(ops))
	var wg sync.WaitGroup
	clock := dueClock{start: time.Now()}
	for i, o := range ops {
		if err := clock.sleepUntil(ctx, o.Due); err != nil {
			for j := i; j < len(ops); j++ {
				results[j] = result{outcome: outTimedOut, err: err}
			}
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			late := clock.since(o.Due)
			r := send(ctx, c, i, o, tr)
			r.late = late
			r.latency = clock.since(o.Due)
			results[i] = r
		}()
	}
	wg.Wait()
	return results
}

// dueClock measures against a schedule fixed at the start of a phase.
type dueClock struct{ start time.Time }

// since returns how long ago the instant due after start was.
func (c dueClock) since(due time.Duration) time.Duration {
	return time.Since(c.start) - due
}

// sleepUntil blocks until due after start, or ctx ends.
func (c dueClock) sleepUntil(ctx context.Context, due time.Duration) error {
	wait := -c.since(due)
	if wait <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

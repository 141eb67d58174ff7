package load

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"

	"github.com/why-not-xai/emigre/client"
)

// DefaultMaxInflight bounds concurrent open-loop dispatches so a
// stalled server cannot make the generator hold thousands of sockets.
const DefaultMaxInflight = 64

// RunConfig drives one capture or replay run.
type RunConfig struct {
	// Client issues the requests (its backoff/Retry-After/deadline
	// machinery applies per call).
	Client *client.Client
	// Requests is the stream to issue, in order.
	Requests []Request
	// Closed switches to closed-loop dispatch: Concurrency workers each
	// issue their next request when the previous one finishes, ignoring
	// OffsetUS. Open-loop (default) dispatches each request at its
	// scheduled offset.
	Closed bool
	// Concurrency is the worker count (closed loop) or the in-flight
	// cap (open loop). 0 means 1 worker / DefaultMaxInflight.
	Concurrency int
	// Speed scales open-loop timing: 1 replays at recorded rate, 2 at
	// double rate, 0 dispatches with no pacing at all.
	Speed float64
}

// Run issues every request and returns one Record per request, ordered
// by Seq. The error is only for setup problems or context cancellation;
// per-request failures are recorded, not returned.
func Run(ctx context.Context, rc RunConfig) ([]Record, error) {
	if rc.Client == nil {
		return nil, errors.New("load: RunConfig.Client is required")
	}
	if len(rc.Requests) == 0 {
		return nil, errors.New("load: no requests to run")
	}
	records := make([]Record, len(rc.Requests))
	start := time.Now()
	if rc.Closed {
		if err := runClosed(ctx, rc, start, records); err != nil {
			return nil, err
		}
	} else if err := runOpen(ctx, rc, start, records); err != nil {
		return nil, err
	}
	sort.Slice(records, func(i, j int) bool { return records[i].Seq < records[j].Seq })
	return records, nil
}

// runClosed pulls requests through a fixed worker pool in stream order.
func runClosed(ctx context.Context, rc RunConfig, start time.Time, records []Record) error {
	workers := rc.Concurrency
	if workers <= 0 {
		workers = 1
	}
	feed := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				records[i] = issue(ctx, rc.Client, rc.Requests[i], start)
			}
		}()
	}
	var err error
feeding:
	for i := range rc.Requests {
		select {
		case feed <- i:
		case <-ctx.Done():
			err = ctx.Err()
			break feeding
		}
	}
	close(feed)
	wg.Wait()
	return err
}

// runOpen dispatches each request at its scheduled offset (scaled by
// Speed), bounded by an in-flight semaphore.
func runOpen(ctx context.Context, rc RunConfig, start time.Time, records []Record) error {
	inflight := rc.Concurrency
	if inflight <= 0 {
		inflight = DefaultMaxInflight
	}
	sem := make(chan struct{}, inflight)
	var wg sync.WaitGroup
	var err error
	for i := range rc.Requests {
		if rc.Speed > 0 {
			due := start.Add(time.Duration(float64(rc.Requests[i].OffsetUS)/rc.Speed) * time.Microsecond)
			if wait := time.Until(due); wait > 0 {
				t := time.NewTimer(wait)
				select {
				case <-t.C:
				case <-ctx.Done():
					t.Stop()
					err = ctx.Err()
				}
			}
		}
		if err == nil && ctx.Err() != nil {
			err = ctx.Err()
		}
		if err != nil {
			// Mark the rest of the stream as never-dispatched.
			for j := i; j < len(rc.Requests); j++ {
				records[j] = Record{V: LogVersion, Request: rc.Requests[j], Err: "not dispatched: " + err.Error()}
			}
			break
		}
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			err = ctx.Err()
			for j := i; j < len(rc.Requests); j++ {
				records[j] = Record{V: LogVersion, Request: rc.Requests[j], Err: "not dispatched: " + err.Error()}
			}
		}
		if err != nil {
			break
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			records[i] = issue(ctx, rc.Client, rc.Requests[i], start)
		}(i)
	}
	wg.Wait()
	if err != nil {
		return err
	}
	return nil
}

// issue sends one request through the client and folds the outcome
// into a Record.
func issue(ctx context.Context, cl *client.Client, req Request, start time.Time) Record {
	rec := Record{V: LogVersion, Request: req}
	rec.StartUS = time.Since(start).Microseconds()
	cctx := client.WithRequestID(ctx, req.RID)
	began := time.Now()
	var meta client.Meta
	var err error
	switch req.Op {
	case OpRecommend:
		var resp *client.RecommendResponse
		resp, err = cl.Recommend(cctx, req.User, req.N)
		if resp != nil {
			meta = resp.Meta
		}
	case OpDiagnose:
		var resp *client.DiagnoseResponse
		resp, err = cl.Diagnose(cctx, client.DiagnoseRequest{
			User: req.User, WNI: req.WNI, Mode: req.Mode, TimeoutMS: req.TimeoutMS,
		})
		if resp != nil {
			meta = resp.Meta
		}
	default: // OpExplain
		var resp *client.ExplainResponse
		resp, err = cl.Explain(cctx, client.ExplainRequest{
			User: req.User, WNI: req.WNI, Mode: req.Mode, Method: req.Method,
			TimeoutMS: req.TimeoutMS,
		})
		if resp != nil {
			meta = resp.Meta
			rec.Degraded = resp.Degraded
			rec.DegradedLevel = resp.DegradedLevel
		}
	}
	rec.LatencyUS = time.Since(began).Microseconds()
	rec.Attempts = meta.Attempts
	rec.CacheHits, rec.CacheMisses = meta.CacheHits, meta.CacheMisses
	if err == nil {
		rec.Status = 200
		return rec
	}
	rec.Err = err.Error()
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		rec.Status = apiErr.Status
	}
	return rec
}

package router

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"

	"github.com/why-not-xai/emigre/client"
)

// maxBatchRequests bounds one /explain/batch body; bigger batches
// should be split by the caller (the bound keeps one request from
// monopolizing the admission gate).
const maxBatchRequests = 256

// BatchRequest is the /explain/batch body: independent Why-Not
// questions, answered in order.
type BatchRequest struct {
	Requests []client.ExplainRequest `json:"requests"`
}

// BatchItem is one slot of a batch response: exactly one of Result or
// Error is set. Status carries the per-item HTTP status the request
// would have received standalone.
type BatchItem struct {
	Status int                     `json:"status"`
	Result *client.ExplainResponse `json:"result,omitempty"`
	Error  string                  `json:"error,omitempty"`
	// BudgetExhausted repeats the backend's mark on a 404 slot: the
	// search ran out of CHECK budget, not out of search space.
	BudgetExhausted bool `json:"budget_exhausted,omitempty"`
}

// BatchResponse answers /explain/batch. Results[i] answers
// Requests[i] — order is the caller's, not the fan-out's.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
}

// handleBatch splits a multi-user body into per-backend sub-batches by
// ring ownership, fans the sub-batches out concurrently through the
// resilient client, and reassembles the answers in request order.
// Per-item failures are per-item results, not a batch failure: one
// cold shard must not void the other users' answers.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	rt.m.requests[opBatch].Inc()
	var body BatchRequest
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return
	}
	if len(body.Requests) == 0 {
		writeError(w, http.StatusBadRequest, "requests is empty")
		return
	}
	if len(body.Requests) > maxBatchRequests {
		writeError(w, http.StatusBadRequest,
			"batch of "+strconv.Itoa(len(body.Requests))+" exceeds the "+strconv.Itoa(maxBatchRequests)+"-request limit")
		return
	}
	for i, req := range body.Requests {
		if req.User == "" {
			writeError(w, http.StatusBadRequest, "requests["+strconv.Itoa(i)+"]: user is required")
			return
		}
	}
	rt.m.batchSub.Add(int64(len(body.Requests)))

	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.UpstreamTimeout)
	defer cancel()
	ctx = client.WithRequestID(ctx, requestIDFrom(r))

	// The batch holds one admission unit per item for its whole
	// duration: a 64-user batch is 64 users' worth of upstream work.
	release, ok := rt.admitRequest(ctx, w, opBatch, int64(len(body.Requests)))
	if !ok {
		return
	}
	defer release()

	// Group items by owning backend, preserving each item's original
	// index for reassembly.
	type slot struct {
		idx int
		req client.ExplainRequest
	}
	groups := make(map[string][]slot)
	for i, req := range body.Requests {
		owner := rt.candidates(req.User)[0]
		groups[owner] = append(groups[owner], slot{idx: i, req: req})
	}

	results := make([]BatchItem, len(body.Requests))
	var wg sync.WaitGroup
	for backend, slots := range groups {
		wg.Add(1)
		go func(backend string, slots []slot) {
			defer wg.Done()
			for _, s := range slots {
				if ctx.Err() != nil {
					results[s.idx] = BatchItem{Status: http.StatusGatewayTimeout, Error: "batch deadline exceeded"}
					continue
				}
				v, err := rt.callUpstream(opExplain, backend, func(c *client.Client) (any, error) {
					return c.Explain(ctx, s.req)
				})
				if err != nil {
					status, body := upstreamError(legResult{err: err})
					results[s.idx] = BatchItem{Status: status, Error: body.Error, BudgetExhausted: body.BudgetExhausted}
					continue
				}
				results[s.idx] = BatchItem{Status: http.StatusOK, Result: v.(*client.ExplainResponse)}
			}
		}(backend, slots)
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, BatchResponse{Results: results})
}

// Package pprcache is a concurrency-safe, sharded LRU cache of PPR
// push state — the scoring substrate every recommendation and every
// EMiGRe explanation bottoms out in. Entries hold a ppr.PushResult:
// vector-level producers (GetOrCompute) store estimates only, while
// result-level producers (GetOrComputeResult) keep the residual pair
// resident so incremental "delta" CHECKs can warm-start pushes from a
// cached base instead of recomputing from scratch. Under serving
// traffic the same
// forward vector is recomputed for every returning user and the same
// reverse column for every popular item; PRINCE (Ghazimatin et al.,
// WSDM'20) and the push framework of Zhang, Lofgren & Goel (KDD'16)
// both exploit exactly this reuse structure, and this package makes it
// a first-class subsystem:
//
//   - entries are keyed by (view version, direction, engine identity,
//     node), where the version comes from internal/hin's graph
//     versioning and the identity from ppr.Identifier — so a graph
//     mutation or a different counterfactual overlay can never serve a
//     stale vector, while an identical overlay rebuilt across requests
//     still hits;
//   - the cache is sharded to keep lock hold times off the hot path,
//     and bounded both by entry count and by bytes, with per-shard LRU
//     eviction;
//   - concurrent misses on one key are collapsed singleflight-style:
//     one goroutine computes, the rest wait. The wait is context-aware
//     (a canceled waiter unblocks immediately with its context's
//     cause), and the computation itself is detached from any single
//     request: it is canceled only when the last interested waiter has
//     gone away, so one client's timeout cannot poison the result for
//     the others.
//
// Cached vectors are shared between callers and MUST be treated as
// immutable. Every producer in this repository already does (PPR
// engines return fresh vectors and all consumers only read them).
package pprcache

import (
	"context"
	"sync/atomic"

	"github.com/why-not-xai/emigre/internal/hin"
	"github.com/why-not-xai/emigre/internal/ppr"
)

// Direction distinguishes forward vectors PPR(s,·) from reverse
// columns PPR(·,t) in cache keys.
type Direction uint8

const (
	// Forward marks a single-source row PPR(s,·).
	Forward Direction = iota
	// Reverse marks a single-target column PPR(·,t).
	Reverse
)

// String returns "fwd" or "rev".
func (d Direction) String() string {
	if d == Reverse {
		return "rev"
	}
	return "fwd"
}

// Key identifies one cached vector. Keys are value types usable as map
// keys; equality of every field is required for a hit.
type Key struct {
	// Version identifies the graph view content the vector was computed
	// over (see hin.ViewVersion).
	Version hin.Version
	// Dir is the computation direction.
	Dir Direction
	// Engine is the engine's cache identity: algorithm name plus the
	// digest of every parameter that influences its output
	// (ppr.Identifier). Callers scoring over a view whose version does
	// not capture all scoring parameters must fold the rest in here.
	Engine string
	// Node is the source (Forward) or target (Reverse) node.
	Node hin.NodeID
}

// ForwardKey builds the key of the forward vector PPR(node,·) computed
// by engine over view v. It reports false — caching impossible — when
// the view does not support versioning.
func ForwardKey(v hin.View, engine ppr.Identifier, node hin.NodeID) (Key, bool) {
	ver, ok := hin.ViewVersion(v)
	if !ok {
		return Key{}, false
	}
	return Key{Version: ver, Dir: Forward, Engine: engine.Identity(), Node: node}, true
}

// ReverseKey builds the key of the reverse column PPR(·,node) computed
// by engine over view v (see ForwardKey).
func ReverseKey(v hin.View, engine ppr.Identifier, node hin.NodeID) (Key, bool) {
	ver, ok := hin.ViewVersion(v)
	if !ok {
		return Key{}, false
	}
	return Key{Version: ver, Dir: Reverse, Engine: engine.Identity(), Node: node}, true
}

// Stats is a point-in-time snapshot of the cache's counters.
type Stats struct {
	// Hits counts lookups answered from a resident entry.
	Hits int64 `json:"hits"`
	// Misses counts lookups that led a new computation.
	Misses int64 `json:"misses"`
	// Collapsed counts lookups that joined an in-flight computation
	// started by another goroutine (singleflight dedup).
	Collapsed int64 `json:"collapsed"`
	// Evictions counts entries dropped to enforce the entry or byte
	// bounds.
	Evictions int64 `json:"evictions"`
	// Entries and Bytes are the current residency gauges.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// Inflight is the number of computations currently running.
	Inflight int64 `json:"inflight"`
	// Upgrades counts resident vector-only entries promoted to full
	// push results by GetOrComputeResult (warm-start consumers needing
	// residuals a vector-level producer did not keep).
	Upgrades int64 `json:"upgrades"`
}

// RequestStats accumulates per-request cache activity. Attach one to a
// context with WithRequestStats and every cache lookup performed under
// that context is tallied — the server's request log uses this to print
// per-request hit/miss counts. Safe for concurrent use.
type RequestStats struct {
	hits   atomic.Int64
	misses atomic.Int64
}

// Hits returns the number of lookups served without a fresh
// computation charged to this request (resident hits plus collapsed
// waits on another request's computation).
func (r *RequestStats) Hits() int64 { return r.hits.Load() }

// Misses returns the number of computations this request led.
func (r *RequestStats) Misses() int64 { return r.misses.Load() }

type requestStatsKey struct{}

// WithRequestStats returns a context whose cache lookups are tallied
// into rs.
func WithRequestStats(ctx context.Context, rs *RequestStats) context.Context {
	return context.WithValue(ctx, requestStatsKey{}, rs)
}

// requestStatsFrom extracts the request tally, nil when absent.
func requestStatsFrom(ctx context.Context) *RequestStats {
	rs, _ := ctx.Value(requestStatsKey{}).(*RequestStats)
	return rs
}

// countRequest tallies one lookup outcome into the context's request
// stats, when present.
func countRequest(ctx context.Context, hit bool) {
	rs := requestStatsFrom(ctx)
	if rs == nil {
		return
	}
	if hit {
		rs.hits.Add(1)
	} else {
		rs.misses.Add(1)
	}
}

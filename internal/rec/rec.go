// Package rec implements the graph recommender of §3.2: items are
// ranked for a user u by their Personalized PageRank score PPR(u, i),
// and the recommendation is
//
//	rec = argmax_{i ∈ I \ Nout(u)} PPR(u, i)      (Eq. 2)
//
// — the best-scoring item the user has not already interacted with.
//
// The transition structure follows the RecWalk idea the paper builds on:
// the walk follows outgoing edges with a β-mix between weight-
// proportional and uniform transitions (β = 1 is the plain weighted
// walk; the paper's experimental setting uses β = 0.5). The mix is
// exposed as a View decorator so PPR engines, the EMiGRe explainer and
// the PRINCE baseline all see exactly the same transition matrix.
//
// Every ranking read — Recommend, TopN, RankOf, TopOf / RankWithin and
// the explainer's CHECK, TopDecided — is one kernel over a score vector:
// a walk of the candidate index (the item-typed node ids, built once in
// New) minus the user's sorted out-row, under the order fmath.Before.
// TopDecided reads it off a push it stops once the ranking is certain.
package rec

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"github.com/why-not-xai/emigre/internal/fmath"
	"github.com/why-not-xai/emigre/internal/hin"
	"github.com/why-not-xai/emigre/internal/ppr"
	"github.com/why-not-xai/emigre/internal/pprcache"
)

// Config parameterizes a Recommender.
type Config struct {
	// PPR holds the Personalized PageRank hyper-parameters (α, ε, ...).
	PPR ppr.Params
	// Beta mixes weight-proportional (β) and uniform (1−β) transition
	// probabilities over a node's outgoing edges. The paper's setting
	// uses β = 0.5.
	Beta float64
	// ItemTypes lists the node types that are recommendable (the item
	// set I). At least one type is required.
	ItemTypes []hin.NodeTypeID
}

// DefaultConfig returns the paper's experimental setting: α = 0.15,
// ε = 2.7e-8, β = 0.5, with the given recommendable item types.
func DefaultConfig(itemTypes ...hin.NodeTypeID) Config {
	return Config{
		PPR:       ppr.DefaultParams(),
		Beta:      0.5,
		ItemTypes: itemTypes,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.PPR.Validate(); err != nil {
		return err
	}
	if c.Beta < 0 || c.Beta > 1 {
		return fmt.Errorf("rec: beta must be in [0,1], got %g", c.Beta)
	}
	if len(c.ItemTypes) == 0 {
		return errors.New("rec: at least one item node type is required")
	}
	return nil
}

// Errors returned by the recommender.
var (
	ErrNoCandidates = errors.New("rec: user has no recommendable candidate items")
	ErrNotCandidate = errors.New("rec: node is not a candidate item for this user")
)

// Scored pairs a node with its personalized score.
type Scored struct {
	Node  hin.NodeID
	Score float64
}

// Recommender ranks items for users over a fixed view. Use WithView to
// rebind the same configuration to a counterfactual overlay.
//
// A recommender ranks a fixed node set: the candidate index is built in
// New and shared read-only by every copy (WithView, WithUserPatch,
// WithCache) — overlays change edges, never node types or the node
// count. Nodes added to the graph later need a new recommender.
//
// Concurrency contract: every scoring method (Recommend, TopN, RankOf,
// their Context variants, TopOf, RankWithin and TopDecided) only reads the
// recommender's state and keeps its scratch on its own stack, so a
// Recommender is safe for concurrent use once its flat snapshot exists —
// call Flat() (or any scoring method) once before sharing it across
// goroutines; the lazy build itself is not synchronized. The mutating
// methods (SetCache) and the cheap rebinding constructors (WithView,
// WithUserPatch) must not race with anything; rebinding returns a new
// instance and never mutates the receiver, so concurrent explanation
// sessions can call WithUserPatch over one warm shared recommender.
type Recommender struct {
	cfg    Config
	base   hin.View
	view   hin.View // base wrapped with the β-mix when Beta != 1
	flat   *hin.CSR // what pushes run over: lazy NewCSR(view), or the parent's with u's row patched
	engine *ppr.ForwardPush
	items  []hin.NodeID    // candidate index: ascending ids of the item-typed nodes; immutable, shared by every copy
	cache  *pprcache.Cache // optional shared vector cache (SetCache)
	patch  hin.NodeID      // the node whose row WithUserPatch rewrote; InvalidNode when flat is unpatched
	sums   *colSums        // ColumnSums of flat's unpatched snapshot; nil on a patch of a patch
}

// New builds a recommender over g. It returns an error for an invalid
// configuration.
func New(g hin.View, cfg Config) (*Recommender, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var items []hin.NodeID
	for v := range hin.NodeID(g.NumNodes()) {
		if slices.Contains(cfg.ItemTypes, g.NodeType(v)) {
			items = append(items, v)
		}
	}
	return &Recommender{
		cfg:    cfg,
		base:   g,
		view:   WrapBeta(g, cfg.Beta),
		engine: ppr.NewForwardPush(cfg.PPR),
		items:  items,
		patch:  hin.InvalidNode,
	}, nil
}

// WithView returns a recommender with the same configuration bound to a
// different view (typically a counterfactual hin.Overlay of the
// original graph).
func (r *Recommender) WithView(g hin.View) *Recommender {
	c := *r
	c.base = g
	c.view = WrapBeta(g, r.cfg.Beta)
	c.flat, c.patch, c.sums = nil, hin.InvalidNode, nil
	return &c
}

// Flat returns the CSR snapshot every push runs over, built on first
// use: an exact materialization of View(), several times faster to
// traverse. On a WithUserPatch recommender it is the parent's snapshot
// with the user's row patched.
//
// The first call builds the snapshot without synchronization; warm it
// single-threaded before sharing the recommender across goroutines.
// Once built, the snapshot is immutable and read-shared by every copy
// made with WithUserPatch.
func (r *Recommender) Flat() *hin.CSR {
	if r.flat == nil {
		r.flat = hin.NewCSR(r.view)
		r.sums = &colSums{flat: r.flat}
	}
	return r.flat
}

// WithUserPatch returns a recommender bound to view v, which must
// differ from this recommender's base view only in the outgoing edges
// of node u — the shape of every EMiGRe counterfactual. Unlike
// WithView, the returned recommender scores over a one-row patch of
// this recommender's flat snapshot (hin.CSR.WithOutRow), so binding
// costs O(deg u) instead of O(V+E). The receiver is never mutated and
// the shared snapshot is only read, so concurrent WithUserPatch calls
// over one warm recommender are safe (the clone-safety contract
// concurrent explanation sessions rely on).
func (r *Recommender) WithUserPatch(v hin.View, u hin.NodeID) *Recommender {
	c := *r
	c.base = v
	c.view = WrapBeta(v, r.cfg.Beta)
	c.flat = r.patchedRow(v, u)
	c.patch, c.sums = u, r.sums
	if r.patch != hin.InvalidNode {
		c.sums = nil // no longer one row away from the snapshot the sums bound
	}
	return &c
}

// ScoringView returns Flat() as a hin.View.
func (r *Recommender) ScoringView() hin.View { return r.Flat() }

// patchedRow builds u's β-mixed outgoing row under v and patches it
// into the base flat snapshot.
func (r *Recommender) patchedRow(v hin.View, u hin.NodeID) *hin.CSR {
	total := v.OutWeightSum(u)
	deg := v.OutDegree(u)
	var row []hin.HalfEdge
	var sum float64
	if total > 0 && deg > 0 {
		row = make([]hin.HalfEdge, 0, deg)
		if fmath.Eq(r.cfg.Beta, 1) {
			v.OutEdges(u, func(h hin.HalfEdge) bool {
				row = append(row, h)
				return true
			})
			sum = total
		} else {
			uniform := (1 - r.cfg.Beta) / float64(deg)
			v.OutEdges(u, func(h hin.HalfEdge) bool {
				h.Weight = r.cfg.Beta*h.Weight/total + uniform
				row = append(row, h)
				return true
			})
			sum = 1
		}
	}
	return r.Flat().WithOutRow(u, row, sum)
}

// Config returns the recommender's configuration.
func (r *Recommender) Config() Config { return r.cfg }

// SetCache attaches a shared PPR-vector cache. Scores computed by this
// recommender — and by every recommender later derived from it via
// WithView or WithUserPatch — are then served from c when the scoring
// view is versioned (graphs, overlays and their β-wraps all are).
// Passing nil detaches the cache. Not safe to call concurrently with
// scoring.
func (r *Recommender) SetCache(c *pprcache.Cache) { r.cache = c }

// WithCache returns a copy of the recommender with the shared PPR-
// vector cache attached (nil detaches). The receiver is never mutated,
// so callers that must not alias the original's future state — the
// server and the explainer both rebind a borrowed recommender to their
// own cache — get a clone with the same safety contract as WithView:
// the flat snapshot (when already built) is read-shared, everything
// else is independent. Unlike a bare struct copy at the call site,
// adding synchronization state to Recommender later only requires
// updating this one constructor.
func (r *Recommender) WithCache(c *pprcache.Cache) *Recommender {
	cp := *r
	cp.cache = c
	return &cp
}

// Cache returns the attached vector cache, nil when none.
func (r *Recommender) Cache() *pprcache.Cache { return r.cache }

// View returns the transition view the recommender scores over: the
// underlying graph wrapped with the β-mix. EMiGRe's contribution
// functions must read transition weights from this view so heuristics
// and the CHECK step agree.
func (r *Recommender) View() hin.View { return r.view }

// IsItem reports whether node v has a recommendable type.
func (r *Recommender) IsItem(v hin.NodeID) bool {
	_, ok := slices.BinarySearch(r.items, v)
	return ok
}

// IsCandidate reports whether v may appear in u's recommendation list:
// v is an item, v ≠ u, and the user has no outgoing edge to v.
func (r *Recommender) IsCandidate(u, v hin.NodeID) bool {
	return v != u && r.IsItem(v) && !r.base.HasEdge(u, v)
}

// Scores returns the full personalized score vector PPR(u, ·) over the
// β-mixed transition view.
func (r *Recommender) Scores(u hin.NodeID) (ppr.Vector, error) {
	return r.ScoresContext(context.Background(), u)
}

// ScoresContext is Scores with cancellation: the underlying PPR run
// aborts with ctx.Err() once ctx is canceled or its deadline passes.
//
// When a cache is attached (SetCache) the vector may be shared with
// concurrent callers and MUST be treated as read-only. The cache key is
// derived from r.View() — the β-mixed transition view — which Flat()
// is an exact materialization of (a row-patched snapshot is itself
// unversioned).
func (r *Recommender) ScoresContext(ctx context.Context, u hin.NodeID) (ppr.Vector, error) {
	if r.cache != nil {
		if k, ok := pprcache.ForwardKey(r.view, r.engine, u); ok {
			vec, _, err := r.cache.GetOrCompute(ctx, k, func(cctx context.Context) (ppr.Vector, error) {
				return r.engine.FromSourceContext(cctx, r.Flat(), u)
			})
			return vec, err
		}
	}
	return r.engine.FromSourceContext(ctx, r.Flat(), u)
}

// exclusions returns, sorted into buf (a stack buffer: a longer row
// costs an allocation), the nodes that cannot be recommended to u: u and
// the neighbours on its row of the flat snapshot — the overlay's row on
// a counterfactual; the β-mix rewrites weights, never the edge set.
func (r *Recommender) exclusions(u hin.NodeID, buf []hin.NodeID) []hin.NodeID {
	buf = append(buf, u)
	for _, h := range r.Flat().OutSlice(u) {
		buf = append(buf, h.Node)
	}
	slices.Sort(buf)
	return buf
}

// before is the ranking order on scored nodes (fmath.Before).
func before(a, b Scored) bool {
	return fmath.Before(a.Score, b.Score, int(a.Node), int(b.Node))
}

// siftDown restores heap order below slot i of h; the root ranks last.
func siftDown(h []Scored, i int) {
	for c := 2*i + 1; c < len(h); i, c = c, 2*c+1 {
		if c+1 < len(h) && before(h[c], h[c+1]) {
			c++
		}
		if !before(h[i], h[c]) {
			return
		}
		h[i], h[c] = h[c], h[i]
	}
}

// pushHeap offers s to the heap h, last-ranked at the root and bounded by
// its capacity: s replaces the root when h is full — the caller has
// checked that s ranks before it — and is appended otherwise.
func pushHeap(h []Scored, s Scored) []Scored {
	if len(h) == cap(h) {
		h[0] = s
		siftDown(h, 0)
		return h
	}
	h = append(h, s)
	for i := len(h) - 1; i > 0 && before(h[(i-1)/2], h[i]); i = (i - 1) / 2 {
		h[i], h[(i-1)/2] = h[(i-1)/2], h[i]
	}
	return h
}

// selectInto fills buf, up to its capacity (at least 1), with u's best
// candidates on scores in ranking order. The best so far sit in a heap,
// last-ranked at the root, so an item costs one comparison unless it
// enters the list (capacity 1 is a max-scan); only then is it looked up
// in the exclusions. A heap sort orders the survivors.
func (r *Recommender) selectInto(u hin.NodeID, scores ppr.Vector, buf []Scored) []Scored {
	var stack [256]hin.NodeID
	excl := r.exclusions(u, stack[:0])
	for _, id := range r.items {
		s := Scored{Node: id, Score: scores[id]}
		if len(buf) == cap(buf) && !before(s, buf[0]) {
			continue
		}
		if _, out := slices.BinarySearch(excl, id); out {
			continue
		}
		buf = pushHeap(buf, s)
	}
	for end := len(buf) - 1; end > 0; end-- {
		buf[0], buf[end] = buf[end], buf[0]
		siftDown(buf[:end], 0)
	}
	return buf
}

// TopOf returns the first entry of u's candidate ranking on scores (a
// caller's estimates or ScoresContext's), hin.InvalidNode when there is
// no candidate. It does not allocate.
func (r *Recommender) TopOf(u hin.NodeID, scores ppr.Vector) hin.NodeID {
	var one [1]Scored
	if top := r.selectInto(u, scores, one[:0]); len(top) == 1 {
		return top[0].Node
	}
	return hin.InvalidNode
}

// RankWithin returns candidate v's 1-based rank among u's candidates on
// scores when that rank is at most k, else 0. It does not allocate.
func (r *Recommender) RankWithin(u, v hin.NodeID, scores ppr.Vector, k int) int {
	var stack [256]hin.NodeID
	excl := r.exclusions(u, stack[:0])
	rank := 1
	for _, id := range r.items {
		if fmath.Before(scores[id], scores[v], int(id), int(v)) {
			if _, out := slices.BinarySearch(excl, id); !out {
				if rank++; rank > k {
					return 0
				}
			}
		}
	}
	return rank
}

// Recommend returns the top-1 recommendation for u per Eq. 2. It
// returns ErrNoCandidates when no item is recommendable.
func (r *Recommender) Recommend(u hin.NodeID) (hin.NodeID, error) {
	return r.RecommendContext(context.Background(), u)
}

// RecommendContext is Recommend with cancellation.
func (r *Recommender) RecommendContext(ctx context.Context, u hin.NodeID) (hin.NodeID, error) {
	top, err := r.TopNContext(ctx, u, 1)
	if err != nil {
		return hin.InvalidNode, err
	}
	return top[0].Node, nil
}

// TopN returns the n best-scoring candidate items for u in descending
// score order (ties broken toward the lower node ID). Fewer than n
// entries are returned when the graph has fewer candidates; zero
// candidates is ErrNoCandidates and n < 1 is an error.
func (r *Recommender) TopN(u hin.NodeID, n int) ([]Scored, error) {
	return r.TopNContext(context.Background(), u, n)
}

// TopNContext is TopN with cancellation: the PPR pass behind the
// ranking aborts with ctx.Err() once ctx is done.
func (r *Recommender) TopNContext(ctx context.Context, u hin.NodeID, n int) ([]Scored, error) {
	if n < 1 {
		return nil, fmt.Errorf("rec: top-n size must be at least 1, got %d", n)
	}
	scores, err := r.ScoresContext(ctx, u)
	if err != nil {
		return nil, err
	}
	top := r.selectInto(u, scores, make([]Scored, 0, min(n, len(r.items))))
	if len(top) == 0 {
		return nil, fmt.Errorf("%w (user %d)", ErrNoCandidates, u)
	}
	return top, nil
}

// RankOf returns the 1-based rank of item v in u's candidate ranking.
// It returns ErrNotCandidate when v cannot be recommended to u.
func (r *Recommender) RankOf(u, v hin.NodeID) (int, error) {
	return r.RankOfContext(context.Background(), u, v)
}

// RankOfContext is RankOf with cancellation.
func (r *Recommender) RankOfContext(ctx context.Context, u, v hin.NodeID) (int, error) {
	if !r.IsCandidate(u, v) {
		return 0, fmt.Errorf("%w: user %d, node %d", ErrNotCandidate, u, v)
	}
	scores, err := r.ScoresContext(ctx, u)
	if err != nil {
		return 0, err
	}
	return r.RankWithin(u, v, scores, len(r.items)), nil
}

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
// walk; the paper's experimental setting uses β = 0.5). The mix is baked
// into the recommender's CSR snapshot (hin.NewMixedCSR), so PPR engines,
// the EMiGRe explainer and the PRINCE baseline all read exactly the same
// transition matrix off Flat(). A counterfactual — one edited row of the
// user, a hin.Overlay — is scored by WithUserPatch, which patches that
// row into the snapshot. The vector cache keys a vector by the version
// of the snapshot it was pushed over, and a patched snapshot has none.
//
// Every ranking is computed by one kernel over a score vector: a walk of
// the candidate index (the item-typed node ids, built once in New) minus
// the user's sorted out-row, under the order fmath.Before.
// RankOfContext, TopOf and RankWithin run it on every call, as do Recommend and TopN without
// a cache. With one, Recommend and TopN run it once per cached vector
// and copy later answers from the ranked prefix kept on the vector's
// cache entry (TopNContext).
package rec

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"unsafe"

	"github.com/why-not-xai/emigre/internal/fmath"
	"github.com/why-not-xai/emigre/internal/hin"
	"github.com/why-not-xai/emigre/internal/ppr"
	"github.com/why-not-xai/emigre/internal/pprcache"
)

// Config parameterizes a Recommender.
type Config struct {
	// PPR holds the Personalized PageRank hyper-parameters α and ε.
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

// Recommender ranks items for users over a fixed view. Use
// WithUserPatch to score the same configuration over a counterfactual
// edit of the user's row.
//
// A recommender ranks a fixed node set: the candidate index is built in
// New and shared read-only by every copy (WithUserPatch, WithCache) —
// overlays change edges, never node types or the node count. Nodes
// added to the graph later need a new recommender.
//
// Concurrency contract: a Recommender is immutable from New on. Every
// scoring method (Recommend, TopN, their Context variants,
// RankOfContext, TopOf and RankWithin) only reads its state and keeps
// its scratch on its own stack, so it is safe for concurrent use. The
// cheap rebinding constructors (WithCache, WithUserPatch) return a new
// instance and never mutate the receiver, so concurrent explanation
// sessions can call WithUserPatch over one shared recommender.
type Recommender struct {
	cfg    Config
	base   *hin.Graph
	flat   *hin.CSR // what pushes run over: NewMixedCSR(base, Beta), or the parent's with u's row patched
	engine *ppr.ForwardPush
	items  []hin.NodeID    // candidate index: ascending ids of the item-typed nodes; immutable, shared by every copy
	cache  *pprcache.Cache // optional shared vector cache (WithCache)
	sums   *colSums        // ColumnSums of flat, shared by every copy; nil on a WithUserPatch recommender
}

// New builds a recommender over g: its candidate index and its flat
// snapshot, g flattened under the β-mix (hin.NewMixedCSR). It returns an
// error for an invalid configuration.
func New(g *hin.Graph, cfg Config) (*Recommender, error) {
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
		flat:   hin.NewMixedCSR(g, cfg.Beta),
		engine: ppr.NewForwardPush(cfg.PPR),
		items:  items,
		sums:   &colSums{},
	}, nil
}

// Flat returns the CSR snapshot every push runs over: View() flattened
// under the β-mix in New. On a WithUserPatch recommender it is the
// parent's snapshot with the user's row patched. The snapshot is
// immutable and read-shared by every copy.
func (r *Recommender) Flat() *hin.CSR { return r.flat }

// WithUserPatch returns a recommender that scores the counterfactual o,
// an edit of node u's out-row of this recommender's graph — the shape of
// every EMiGRe counterfactual. It scores over a one-row patch of this
// recommender's flat snapshot (hin.CSR.WithOutRow) with u's β-mixed row
// under o, read into a fresh slice (hin.Overlay.MixedRow), so binding
// costs O(deg u) instead of the O(V+E) of a new snapshot, and o may be
// rebuilt afterwards. The patched snapshot is unversioned, so the copy
// builds no cache key (key) even with a cache attached: a patched copy is
// never cached. The receiver is never mutated and the shared snapshot is
// only read, so concurrent WithUserPatch calls over one recommender
// are safe (the clone-safety contract concurrent explanation sessions
// rely on).
func (r *Recommender) WithUserPatch(o *hin.Overlay, u hin.NodeID) *Recommender {
	row, sum := o.MixedRow(nil, u, r.cfg.Beta)
	c := *r
	c.flat, c.sums = r.flat.WithOutRow(u, row, sum), nil
	return &c
}

// colSums is ppr.ColumnSums of one unpatched snapshot, built on first
// use and shared by every copy scoring over that snapshot.
type colSums struct {
	once sync.Once
	c    ppr.Vector
}

// ColumnSums returns C with C(i) ≥ Σ_x PPR(x,i) for every node i of
// Flat(), computed on the first call and shared by every copy that
// scores over the same snapshot; ppr.Params.ForwardErr(C(i)) bounds a
// forward estimate's error at i. It is nil on a WithUserPatch
// recommender. Safe for concurrent use.
func (r *Recommender) ColumnSums() ppr.Vector {
	s := r.sums
	if s == nil {
		return nil
	}
	s.once.Do(func() { s.c = ppr.ColumnSums(r.flat, r.cfg.PPR) })
	return s.c
}

// ScoringView returns Flat().
func (r *Recommender) ScoringView() *hin.CSR { return r.Flat() }

// Config returns the recommender's configuration.
func (r *Recommender) Config() Config { return r.cfg }

// WithCache returns a copy of the recommender with the shared PPR-
// vector cache attached (nil detaches). The receiver is never mutated,
// so callers that must not alias the original's future state — the
// server and the explainer both rebind a borrowed recommender to their
// own cache — get a clone with the same safety contract as
// WithUserPatch: the flat snapshot is read-shared, everything
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

// View returns the graph the recommender was built over (New), before
// the β-mix and without a WithUserPatch copy's row: scores are taken on
// Flat(), and transition probabilities read off it (Transitions).
func (r *Recommender) View() *hin.Graph { return r.base }

// key is the cache key of the vector engine computes for node in
// direction dir over Flat(). Its version is the snapshot's own, frozen
// when it was flattened, so a key names the state the vector is pushed
// over even after the graph mutates. It reports false without a cache or
// a versioned snapshot — so always on a WithUserPatch copy, whose
// row-patched snapshot is unversioned: a patched copy is never cached.
func (r *Recommender) key(dir pprcache.Direction, engine ppr.Identifier, node hin.NodeID) (pprcache.Key, bool) {
	if r.cache == nil {
		return pprcache.Key{}, false
	}
	ver, ok := r.Flat().Version()
	return pprcache.Key{Version: ver, Dir: dir, Engine: engine.Identity(), Node: node}, ok
}

// IsItem reports whether node v has a recommendable type.
func (r *Recommender) IsItem(v hin.NodeID) bool {
	_, ok := slices.BinarySearch(r.items, v)
	return ok
}

// IsCandidate reports whether v may appear in u's recommendation list:
// v is an item, v ≠ u, and u's row of Flat() has no edge to v.
func (r *Recommender) IsCandidate(u, v hin.NodeID) bool {
	neighbour := func(h hin.HalfEdge) bool { return h.Node == v }
	return v != u && r.IsItem(v) && !slices.ContainsFunc(r.Flat().OutSlice(u), neighbour)
}

// ScoresContext is Scores with cancellation: the underlying PPR run
// aborts with ctx.Err() once ctx is canceled or its deadline passes.
//
// When a cache is attached (WithCache) the vector may be shared with
// concurrent callers and MUST be treated as read-only. The cache key
// names the snapshot Flat() froze (key).
func (r *Recommender) ScoresContext(ctx context.Context, u hin.NodeID) (ppr.Vector, error) {
	k, cached := r.key(pprcache.Forward, r.engine, u)
	vec, _, err := r.scores(ctx, u, k, cached)
	return vec, err
}

// rowFill is what computing u's row on a cache miss reads.
type rowFill struct {
	r *Recommender
	u hin.NodeID
}

// scores is ScoresContext, given u's cache key k when cached, that also
// returns the ranking kept on the cached vector (TopNContext), nil when
// there is none: one cache lookup answers both.
func (r *Recommender) scores(ctx context.Context, u hin.NodeID, k pprcache.Key, cached bool) (ppr.Vector, *ranking, error) {
	if cached {
		vec, note, _, err := pprcache.GetOrComputeNoted(ctx, r.cache, k, rowFill{r, u}, func(cctx context.Context, f rowFill) (ppr.Vector, error) {
			return f.r.engine.FromSourceContext(cctx, f.r.Flat(), f.u)
		})
		rk, _ := note.(*ranking)
		return vec, rk, err
	}
	vec, err := r.engine.FromSourceContext(ctx, r.Flat(), u)
	return vec, nil, err
}

// ranking is the note a cache-attached recommender keeps on a user's
// cached score vector: the first entries of the user's candidate
// ranking on it. fmath.Before is a strict total order on (score, id),
// so top-n is the first n entries of top-m for every m ≥ n: the prefix
// answers any n up to its length, and every n once it is complete.
type ranking struct {
	items    []hin.NodeID // the candidate index ranked over: Recommender.items
	top      []Scored
	complete bool // top holds every candidate
}

// Bytes implements pprcache.Note.
func (k *ranking) Bytes() int64 {
	return int64(unsafe.Sizeof(*k)) + int64(cap(k.top))*int64(unsafe.Sizeof(Scored{}))
}

// prefix returns u's first n candidates when k ranks over the candidate
// index items and holds them. Recommenders configured with different
// ItemTypes may share a cache under identical keys; their notes differ
// in items and read as absent to each other.
func (k *ranking) prefix(items []hin.NodeID, n int) ([]Scored, bool) {
	if k == nil || len(k.items) != len(items) || &k.items[0] != &items[0] || n > len(k.top) && !k.complete {
		return nil, false
	}
	return k.top[:min(n, len(k.top))], true
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

// TopWithin returns the first n entries of u's candidate ranking on
// scores (a caller's estimates or ScoresContext's), fewer when u has
// fewer candidates: TopN's list, selected without a push.
func (r *Recommender) TopWithin(u hin.NodeID, scores ppr.Vector, n int) []Scored {
	return r.selectInto(u, scores, make([]Scored, 0, max(1, min(n, len(r.items)))))
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
//
// With a cache attached the ranking is computed once per cached vector:
// the first call ranks the vector and keeps the list on its cache entry
// (pprcache.Cache.SetNote), and later calls copy a prefix of it. Only a
// larger n than the kept list holds ranks again, and replaces it.
// Without a cache entry the ranking is selected from scores the engine
// lends (rankCold), and the list is all it allocates.
func (r *Recommender) TopNContext(ctx context.Context, u hin.NodeID, n int) ([]Scored, error) {
	if n < 1 {
		return nil, fmt.Errorf("rec: top-n size must be at least 1, got %d", n)
	}
	k, cached := r.key(pprcache.Forward, r.engine, u)
	if !cached {
		return r.rankCold(ctx, u, min(n, len(r.items)))
	}
	scores, kept, err := r.scores(ctx, u, k, true)
	if err != nil {
		return nil, err
	}
	if top, ok := kept.prefix(r.items, n); ok {
		return slices.Clone(top), nil
	}
	n = min(n, len(r.items))
	top := r.selectInto(u, scores, make([]Scored, 0, n))
	if len(top) == 0 {
		return nil, noCandidates(u)
	}
	r.cache.SetNote(k, scores, &ranking{items: r.items, top: slices.Clone(top), complete: len(top) < n || n == len(r.items)})
	return top, nil
}

// rankCold is TopNContext without a cache entry — every CHECK's
// counterfactual, and every ranking of a recommender without a cache:
// nothing else reads the drain's scores, so it selects the top n while
// the engine lends them and allocates only the list it returns.
func (r *Recommender) rankCold(ctx context.Context, u hin.NodeID, n int) ([]Scored, error) {
	top := make([]Scored, 0, n)
	if err := r.engine.LendFromSource(ctx, r.Flat(), u, func(scores ppr.Vector) {
		top = r.selectInto(u, scores, top)
	}); err != nil {
		return nil, err
	}
	if len(top) == 0 {
		return nil, noCandidates(u)
	}
	return top, nil
}

func noCandidates(u hin.NodeID) error { return fmt.Errorf("%w (user %d)", ErrNoCandidates, u) }

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

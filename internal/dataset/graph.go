package dataset

import (
	"fmt"
	"slices"
	"strconv"

	"github.com/why-not-xai/emigre/internal/embed"
	"github.com/why-not-xai/emigre/internal/fmath"
	"github.com/why-not-xai/emigre/internal/hin"
)

// Types bundles the registered node- and edge-type IDs of a dataset
// graph, so downstream code never hard-codes registry lookups.
type Types struct {
	User     hin.NodeTypeID
	Item     hin.NodeTypeID
	Category hin.NodeTypeID
	Review   hin.NodeTypeID

	Rated     hin.EdgeTypeID
	Reviewed  hin.EdgeTypeID
	HasReview hin.EdgeTypeID
	BelongsTo hin.EdgeTypeID
	Similar   hin.EdgeTypeID
}

// RegisterTypes registers (or resolves) the standard dataset types on a
// registry.
func RegisterTypes(reg *hin.TypeRegistry) Types {
	return Types{
		User:      reg.NodeType(TypeUser),
		Item:      reg.NodeType(TypeItem),
		Category:  reg.NodeType(TypeCategory),
		Review:    reg.NodeType(TypeReview),
		Rated:     reg.EdgeType(EdgeRated),
		Reviewed:  reg.EdgeType(EdgeReviewed),
		HasReview: reg.EdgeType(EdgeHasReview),
		BelongsTo: reg.EdgeType(EdgeBelongsTo),
		Similar:   reg.EdgeType(EdgeSimilar),
	}
}

// Amazon is a preprocessed dataset graph with its node inventory.
type Amazon struct {
	Graph *hin.Graph
	Types Types

	Users      []hin.NodeID
	Items      []hin.NodeID
	Categories []hin.NodeID
	Reviews    []hin.NodeID
}

// UserActionEdgeTypes returns the paper's T_e for explanations: the
// user-item action types ("rated" and "reviewed").
func (a *Amazon) UserActionEdgeTypes() hin.EdgeTypeSet {
	return hin.NewEdgeTypeSet(a.Types.Rated, a.Types.Reviewed)
}

// Generate runs the full pipeline: raw synthesis followed by the
// paper's preprocessing (BuildGraph).
func Generate(cfg Config) (*Amazon, error) {
	raw, err := GenerateRaw(cfg)
	if err != nil {
		return nil, err
	}
	return BuildGraph(raw)
}

// BuildGraph applies the paper's §6.1 preprocessing to a raw dataset:
//
//   - ratings ≤ 3 are dropped;
//   - kept interactions become bidirectional "rated" edges weighted by
//     stars/5, plus a "reviewed" edge and a review node with
//     bidirectional "has-review" edges when the rating carries text;
//   - items link to their categories with bidirectional "belongs-to"
//     edges;
//   - review pairs on items sharing a category are linked with
//     bidirectional "similar-to" edges weighted by the cosine
//     similarity of their text embeddings, when it exceeds the
//     configured threshold;
//   - items and categories never touched by any kept edge are still
//     materialized as nodes (matching the paper's node counts), but
//     isolated review nodes are impossible by construction.
func BuildGraph(raw *Raw) (*Amazon, error) {
	a, reviews, err := buildNodes(raw)
	if err != nil {
		return nil, err
	}
	if err := linkSimilarReviews(a.Graph, a.Types, raw, reviews, raw.Config); err != nil {
		return nil, err
	}
	if err := a.Graph.Validate(); err != nil {
		return nil, fmt.Errorf("dataset: generated graph invalid: %w", err)
	}
	return a, nil
}

// buildNodes runs every preprocessing step but the review linking. It
// returns the materialized reviews in node order.
func buildNodes(raw *Raw) (*Amazon, []reviewRec, error) {
	cfg := raw.Config
	g := hin.NewGraph()
	types := RegisterTypes(g.Types())
	a := &Amazon{
		Graph:      g,
		Types:      types,
		Users:      make([]hin.NodeID, 0, cfg.Users),
		Items:      make([]hin.NodeID, 0, cfg.Items),
		Categories: make([]hin.NodeID, 0, cfg.Categories),
	}

	for u := 0; u < cfg.Users; u++ {
		a.Users = append(a.Users, g.AddNode(types.User, "user-"+strconv.Itoa(u)))
	}
	for i := 0; i < cfg.Items; i++ {
		a.Items = append(a.Items, g.AddNode(types.Item, "item-"+strconv.Itoa(i)))
	}
	for c := 0; c < cfg.Categories; c++ {
		a.Categories = append(a.Categories, g.AddNode(types.Category, "category-"+strconv.Itoa(c)))
	}
	deg := degreeBounds(raw)
	g.Reserve(deg, deg)
	for i, cats := range raw.ItemCategories {
		for _, c := range cats {
			if c < 0 || c >= cfg.Categories {
				return nil, nil, fmt.Errorf("dataset: item %d references category %d out of range", i, c)
			}
			if err := g.AddBidirectional(a.Items[i], a.Categories[c], types.BelongsTo, 1); err != nil {
				return nil, nil, err
			}
		}
	}

	enc := embed.NewEncoder(cfg.EmbeddingDim)
	var reviews []reviewRec
	for _, r := range raw.Ratings {
		if r.Stars <= 3 {
			continue // the paper keeps only appreciated items
		}
		if r.User < 0 || r.User >= cfg.Users || r.Item < 0 || r.Item >= cfg.Items {
			return nil, nil, fmt.Errorf("dataset: rating references user %d / item %d out of range", r.User, r.Item)
		}
		u, it := a.Users[r.User], a.Items[r.Item]
		w := float64(r.Stars) / 5
		// An interaction with review text becomes a "reviewed" edge and
		// a review node; one without becomes a "rated" edge. This keeps
		// one user-item action edge per interaction, matching the edge
		// arithmetic of the paper's Table 4 (≈2.6k user-item edges for
		// ≈2.3k reviews across 120 users).
		if r.Review == "" {
			if _, exists := g.EdgeWeight(u, it, types.Rated); !exists {
				if err := g.AddBidirectional(u, it, types.Rated, w); err != nil {
					return nil, nil, err
				}
			}
			continue
		}
		if _, exists := g.EdgeWeight(u, it, types.Reviewed); exists {
			continue // one review per (user, item)
		}
		if err := g.AddBidirectional(u, it, types.Reviewed, w); err != nil {
			return nil, nil, err
		}
		rv := g.AddNode(types.Review, "review-"+strconv.Itoa(len(reviews)))
		a.Reviews = append(a.Reviews, rv)
		if err := g.AddBidirectional(it, rv, types.HasReview, 1); err != nil {
			return nil, nil, err
		}
		reviews = append(reviews, reviewRec{node: rv, item: r.Item, vec: enc.Encode(r.Review)})
	}
	return a, reviews, nil
}

// degreeBounds returns a bound on the degree of every user, item and
// category, in node order (every edge is bidirectional, so it bounds
// both the out- and the in-degree). A rating that repeats a (user,
// item) pair only leaves room unused; review nodes, added later, grow
// their short lists by appending. Records out of range are skipped here
// and rejected by buildNodes.
func degreeBounds(raw *Raw) []int {
	cfg := raw.Config
	items, cats := cfg.Users, cfg.Users+cfg.Items
	deg := make([]int, cats+cfg.Categories)
	for i, cs := range raw.ItemCategories[:min(len(raw.ItemCategories), cfg.Items)] {
		for _, c := range cs {
			if c >= 0 && c < cfg.Categories {
				deg[items+i]++
				deg[cats+c]++
			}
		}
	}
	for _, r := range raw.Ratings {
		if r.Stars <= 3 || r.User < 0 || r.User >= cfg.Users || r.Item < 0 || r.Item >= cfg.Items {
			continue
		}
		deg[r.User]++
		deg[items+r.Item]++
		if r.Review != "" {
			deg[items+r.Item]++ // has-review
		}
	}
	return deg
}

// reviewRec tracks a materialized review node with its source item and
// text embedding.
type reviewRec struct {
	node hin.NodeID
	item int
	vec  []float64
}

// linkSimilarReviews adds the review–review similarity edges. Only
// review pairs whose items share a category are compared (the
// embedding substitute gives cross-category pairs near-zero similarity
// anyway), and each review links to at most MaxSimilarPerReview
// strongest peers.
//
// The degree cap is greedy: reviews are taken in index order, and each
// links to its candidates above the threshold strongest first (exact
// similarity ties toward the lower peer index), skipping saturated
// peers, until it is saturated itself. A review x only ever gains links
// to peers y > x: a pair with y < x was offered when y was taken and
// either linked then or found an endpoint saturated for good. So each
// review's candidates are collected, and ordered lazily through a heap,
// only when it is taken and still below the cap, and never against a
// saturated peer.
//
// Each unordered pair is compared once, under the smallest category its
// two items share; the cosine reuses each review's squared norm and
// nonzero support.
func linkSimilarReviews(g *hin.Graph, types Types, raw *Raw, reviews []reviewRec, cfg Config) error {
	maxDeg := cfg.MaxSimilarPerReview
	if maxDeg <= 0 {
		return nil
	}
	// Each review's item categories, ascending and deduplicated: the raw
	// lists carry no order guarantee (BuildGraph is exported). byCat[c]
	// lists the reviews of category c in index order.
	itemCats := make([][]int, len(raw.ItemCategories))
	cats := make([][]int, len(reviews))
	byCat := make([][]int, cfg.Categories)
	norms := make([]float64, len(reviews))
	supports := make([][]int, len(reviews))
	for x, r := range reviews {
		if itemCats[r.item] == nil {
			cs := slices.Clone(raw.ItemCategories[r.item])
			slices.Sort(cs)
			itemCats[r.item] = slices.Compact(cs)
		}
		cats[x] = itemCats[r.item]
		for _, c := range cats[x] {
			byCat[c] = append(byCat[c], x)
		}
		norms[x] = embed.SqNorm(r.vec)
		supports[x] = embed.Support(r.vec)
	}

	next := make([]int, cfg.Categories) // byCat[c][next[c]:] are the reviews after x
	deg := make([]int, len(reviews))
	var peers peerHeap
	for x, rx := range reviews {
		cx := cats[x]
		for _, c := range cx {
			next[c]++
		}
		if deg[x] >= maxDeg {
			continue
		}
		peers = peers[:0]
		for _, c := range cx {
			smallest := cx[0] == c
			for _, y := range byCat[c][next[c]:] {
				if deg[y] >= maxDeg {
					continue
				}
				if cy := cats[y]; !smallest && cy[0] != c && shareBelow(cx, cy, c) {
					continue // compared under a smaller shared category
				}
				sim := embed.CosineSupport(rx.vec, reviews[y].vec, supports[x], norms[x], norms[y])
				if sim > cfg.SimilarityThreshold {
					peers = append(peers, peer{y: y, sim: sim})
				}
			}
		}
		// Every peer was below the cap when collected, and only the
		// pair (x, y) itself raises deg[y] while x is taken.
		peers.init()
		for len(peers) > 0 && deg[x] < maxDeg {
			p := peers.pop()
			deg[x]++
			deg[p.y]++
			if err := g.AddBidirectional(rx.node, reviews[p.y].node, types.Similar, p.sim); err != nil {
				return err
			}
		}
	}
	return nil
}

// shareBelow reports whether the ascending lists a and b have a common
// element smaller than c.
func shareBelow(a, b []int, c int) bool {
	for i, j := 0, 0; i < len(a) && j < len(b) && a[i] < c && b[j] < c; {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// peer is a link candidate of the review being taken.
type peer struct {
	y   int
	sim float64
}

// stronger is the greedy order: higher similarity first, exact ties
// toward the lower peer index.
func (p peer) stronger(q peer) bool {
	if !fmath.Eq(p.sim, q.sim) {
		return p.sim > q.sim
	}
	return p.y < q.y
}

// peerHeap is a binary heap of candidates, strongest at the root.
type peerHeap []peer

func (h peerHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// pop removes and returns the strongest candidate.
func (h *peerHeap) pop() peer {
	old := *h
	top, n := old[0], len(old)-1
	old[0] = old[n]
	*h = old[:n]
	h.down(0)
	return top
}

func (h peerHeap) down(i int) {
	for {
		j := 2*i + 1
		if j >= len(h) {
			return
		}
		if k := j + 1; k < len(h) && h[k].stronger(h[j]) {
			j = k
		}
		if !h[j].stronger(h[i]) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

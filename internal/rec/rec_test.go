package rec

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"github.com/why-not-xai/emigre/internal/fmath"
	"github.com/why-not-xai/emigre/internal/hin"
	"github.com/why-not-xai/emigre/internal/ppr"
	"github.com/why-not-xai/emigre/internal/pprcache"
)

// smallShop builds a bidirectional user-item-category graph:
//
//	u1 - i1, u1 - i2, u2 - i2, u2 - i3
//	i1,i2 - cA ; i3 - cB
//
// For u1 the only unseen items are i3 (reachable via u2) — so the
// recommendation is deterministic.
func smallShop(t *testing.T) (*hin.Graph, Config, map[string]hin.NodeID) {
	t.Helper()
	g := hin.NewGraph()
	user := g.Types().NodeType("user")
	item := g.Types().NodeType("item")
	cat := g.Types().NodeType("category")
	rated := g.Types().EdgeType("rated")
	belongs := g.Types().EdgeType("belongs-to")

	ids := map[string]hin.NodeID{
		"u1": g.AddNode(user, "u1"),
		"u2": g.AddNode(user, "u2"),
		"i1": g.AddNode(item, "i1"),
		"i2": g.AddNode(item, "i2"),
		"i3": g.AddNode(item, "i3"),
		"i4": g.AddNode(item, "i4"),
		"cA": g.AddNode(cat, "cA"),
		"cB": g.AddNode(cat, "cB"),
	}
	pairs := []struct {
		a, b string
		typ  hin.EdgeTypeID
	}{
		{"u1", "i1", rated}, {"u1", "i2", rated},
		{"u2", "i2", rated}, {"u2", "i3", rated},
		{"i1", "cA", belongs}, {"i2", "cA", belongs},
		{"i3", "cB", belongs}, {"i4", "cB", belongs},
	}
	for _, p := range pairs {
		if err := g.AddBidirectional(ids[p.a], ids[p.b], p.typ, 1); err != nil {
			t.Fatal(err)
		}
	}
	cfg := DefaultConfig(item)
	cfg.Beta = 1
	cfg.PPR.Epsilon = 1e-9
	return g, cfg, ids
}

func TestConfigValidation(t *testing.T) {
	g, cfg, _ := smallShop(t)
	bad := cfg
	bad.Beta = 1.5
	if _, err := New(g, bad); err == nil {
		t.Fatal("expected error for beta > 1")
	}
	bad = cfg
	bad.ItemTypes = nil
	if _, err := New(g, bad); err == nil {
		t.Fatal("expected error for empty item types")
	}
	bad = cfg
	bad.PPR.Alpha = 2
	if _, err := New(g, bad); err == nil {
		t.Fatal("expected error for bad alpha")
	}
}

func TestRecommendExcludesNeighbors(t *testing.T) {
	g, cfg, ids := smallShop(t)
	r, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := r.Recommend(ids["u1"])
	if err != nil {
		t.Fatal(err)
	}
	if rec == ids["i1"] || rec == ids["i2"] {
		t.Fatalf("recommended an already-rated item %d", rec)
	}
	// i3 is two hops away through u2; i4 only via category cB. i3 must
	// score higher.
	if rec != ids["i3"] {
		t.Fatalf("rec = %v, want i3 (%v)", rec, ids["i3"])
	}
}

func TestTopNOrderingAndExclusion(t *testing.T) {
	g, cfg, ids := smallShop(t)
	r, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	top, err := r.TopN(ids["u1"], 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 { // only i3 and i4 are candidates
		t.Fatalf("TopN returned %d items, want 2", len(top))
	}
	if top[0].Node != ids["i3"] || top[1].Node != ids["i4"] {
		t.Fatalf("TopN order = %v", top)
	}
	if top[0].Score < top[1].Score {
		t.Fatal("TopN not in descending score order")
	}
	for _, s := range top {
		if !r.IsCandidate(ids["u1"], s.Node) {
			t.Fatalf("non-candidate %d in TopN", s.Node)
		}
	}
	// A list size far above the candidate count returns every candidate
	// in order: the selection buffer is sized by the item index, never
	// by n.
	all, err := r.TopN(ids["u1"], math.MaxInt32)
	if err != nil || !reflect.DeepEqual(all, top) {
		t.Fatalf("TopN(n=MaxInt32) = %v, %v, want %v", all, err, top)
	}
	if cap(all) > g.NumNodes() {
		t.Fatalf("TopN(n=MaxInt32) reserved %d slots on a %d-node graph", cap(all), g.NumNodes())
	}
	// A list size below 1 is an error, never a slice-bounds panic.
	for _, n := range []int{0, -1} {
		if top, err := r.TopN(ids["u1"], n); err == nil {
			t.Fatalf("TopN(n=%d) = %v, want an error", n, top)
		}
	}
}

func TestRankOf(t *testing.T) {
	g, cfg, ids := smallShop(t)
	r, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rank, err := r.RankOf(ids["u1"], ids["i3"])
	if err != nil {
		t.Fatal(err)
	}
	if rank != 1 {
		t.Fatalf("RankOf(i3) = %d, want 1", rank)
	}
	rank, err = r.RankOf(ids["u1"], ids["i4"])
	if err != nil {
		t.Fatal(err)
	}
	if rank != 2 {
		t.Fatalf("RankOf(i4) = %d, want 2", rank)
	}
	if _, err := r.RankOf(ids["u1"], ids["i1"]); !errors.Is(err, ErrNotCandidate) {
		t.Fatalf("RankOf(rated item) err = %v, want ErrNotCandidate", err)
	}
	if _, err := r.RankOf(ids["u1"], ids["cA"]); !errors.Is(err, ErrNotCandidate) {
		t.Fatalf("RankOf(category) err = %v, want ErrNotCandidate", err)
	}
}

func TestNoCandidates(t *testing.T) {
	g := hin.NewGraph()
	user := g.Types().NodeType("user")
	item := g.Types().NodeType("item")
	rated := g.Types().EdgeType("rated")
	u := g.AddNode(user, "u")
	i := g.AddNode(item, "i")
	if err := g.AddBidirectional(u, i, rated, 1); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(item)
	r, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Recommend(u); !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("err = %v, want ErrNoCandidates", err)
	}
}

func TestWithViewOverlayChangesRecommendation(t *testing.T) {
	g, cfg, ids := smallShop(t)
	r, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rated, _ := g.Types().LookupEdgeType("rated")
	// Remove u1's link into the cluster that reaches i3 (the i2 edge,
	// both directions) — i4's relative standing must not degrade.
	o, err := hin.NewOverlay(g,
		[]hin.Edge{
			{From: ids["u1"], To: ids["i2"], Type: rated},
			{From: ids["i2"], To: ids["u1"], Type: rated},
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2 := r.WithView(o)
	top, err := r2.TopN(ids["u1"], 5)
	if err != nil {
		t.Fatal(err)
	}
	// i2 became a candidate again after removal.
	foundI2 := false
	for _, s := range top {
		if s.Node == ids["i2"] {
			foundI2 = true
		}
	}
	if !foundI2 {
		t.Fatal("removed item i2 should re-enter the candidate set")
	}
	// Original recommender is untouched.
	recBefore, err := r.Recommend(ids["u1"])
	if err != nil {
		t.Fatal(err)
	}
	if recBefore != ids["i3"] {
		t.Fatalf("base recommender changed: %v", recBefore)
	}
}

func TestBetaViewRowStochastic(t *testing.T) {
	g, _, ids := smallShop(t)
	for _, beta := range []float64{0, 0.25, 0.5, 0.75} {
		v := WrapBeta(g, beta)
		for _, node := range ids {
			if v.OutDegree(node) == 0 {
				continue
			}
			var sum float64
			v.OutEdges(node, func(h hin.HalfEdge) bool { sum += h.Weight; return true })
			if math.Abs(sum-1) > 1e-12 {
				t.Fatalf("beta=%g node %d: weights sum to %g, want 1", beta, node, sum)
			}
			if math.Abs(v.OutWeightSum(node)-1) > 1e-12 {
				t.Fatalf("beta=%g node %d: OutWeightSum = %g, want 1", beta, node, v.OutWeightSum(node))
			}
		}
	}
}

func TestBetaViewUniformAtZero(t *testing.T) {
	// β = 0 ignores edge weights entirely.
	g := hin.NewGraph()
	nt := g.Types().NodeType("n")
	et := g.Types().EdgeType("e")
	a := g.AddNode(nt, "")
	b := g.AddNode(nt, "")
	c := g.AddNode(nt, "")
	if err := g.AddEdge(a, b, et, 100); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(a, c, et, 1); err != nil {
		t.Fatal(err)
	}
	v := WrapBeta(g, 0)
	if got := hin.Transition(v, a, b); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("Transition(a,b) = %g, want 0.5", got)
	}
}

func TestBetaOneIsIdentity(t *testing.T) {
	g, _, _ := smallShop(t)
	if WrapBeta(g, 1) != hin.View(g) {
		t.Fatal("beta=1 should return the original view")
	}
}

func TestBetaViewInOutConsistency(t *testing.T) {
	// Reverse push divides incoming weight by the source's OutWeightSum;
	// the rewritten in-edge weights must equal the rewritten out-edge
	// weights so forward and reverse agree.
	rng := rand.New(rand.NewSource(17))
	g := hin.NewGraph()
	nt := g.Types().NodeType("n")
	et := g.Types().EdgeType("e")
	for i := 0; i < 12; i++ {
		g.AddNode(nt, "")
	}
	for i := 0; i < 40; i++ {
		a := hin.NodeID(rng.Intn(12))
		b := hin.NodeID(rng.Intn(12))
		if a != b {
			_ = g.AddBidirectional(a, b, et, rng.Float64()+0.1)
		}
	}
	v := WrapBeta(g, 0.5)
	params := ppr.DefaultParams()
	params.Epsilon = 1e-9
	fwd := ppr.NewForwardPush(params)
	rev := ppr.NewReversePush(params)
	src, tgt := hin.NodeID(0), hin.NodeID(7)
	rowVec, err := fwd.FromSource(v, src)
	if err != nil {
		t.Fatal(err)
	}
	colVec, err := rev.ToTarget(v, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(rowVec[tgt] - colVec[src]); diff > 1e-6 {
		t.Fatalf("forward/reverse disagree on beta view: %g vs %g", rowVec[tgt], colVec[src])
	}
}

func TestBetaAffectsScores(t *testing.T) {
	g, cfg, ids := smallShop(t)
	rated, _ := g.Types().LookupEdgeType("rated")
	// Unequal weights so beta matters.
	if err := g.RemoveEdge(ids["u1"], ids["i1"], rated); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(ids["u1"], ids["i1"], rated, 10); err != nil {
		t.Fatal(err)
	}
	cfgHalf := cfg
	cfgHalf.Beta = 0.5
	r1, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := New(g, cfgHalf)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := r1.Scores(ids["u1"])
	if err != nil {
		t.Fatal(err)
	}
	s2, err := r2.Scores(ids["u1"])
	if err != nil {
		t.Fatal(err)
	}
	var maxDiff float64
	for i := range s1 {
		if d := math.Abs(s1[i] - s2[i]); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff < 1e-6 {
		t.Fatal("beta mix had no effect on scores despite unequal weights")
	}
}

// TestWithCacheClonesRecommender pins the WithCache contract: the
// returned recommender carries the cache, the receiver is untouched,
// and both score over the same view. This is the seam the server uses
// to rebind a borrowed recommender to its private cache — before the
// constructor existed, call sites took shallow struct copies that would
// silently alias any state Recommender grows later.
func TestWithCacheClonesRecommender(t *testing.T) {
	g, cfg, ids := smallShop(t)
	r, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cache := pprcache.New(pprcache.Config{})

	cloned := r.WithCache(cache)
	if r.Cache() != nil {
		t.Fatal("WithCache mutated the receiver")
	}
	if cloned == r {
		t.Fatal("WithCache must return a distinct instance")
	}
	if cloned.Cache() != cache {
		t.Fatal("clone does not carry the cache")
	}

	// Both instances produce identical recommendations.
	want, err := r.TopN(ids["u1"], 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cloned.TopN(ids["u1"], 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("clone TopN len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Node != want[i].Node || !fmath.Eq(got[i].Score, want[i].Score) {
			t.Fatalf("clone TopN[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	// The clone's scoring populated the cache; the original stays
	// detached from it.
	if cache.Stats().Misses == 0 {
		t.Fatal("clone never touched the attached cache")
	}

	// Detaching via WithCache(nil) works and still leaves the receiver
	// (which has the cache here) alone.
	detached := cloned.WithCache(nil)
	if detached.Cache() != nil {
		t.Fatal("WithCache(nil) must detach")
	}
	if cloned.Cache() != cache {
		t.Fatal("WithCache(nil) mutated its receiver")
	}
}

// topNBySort is the scan-and-sort ranking this package shipped before
// the ranking kernel — every node probed with IsCandidate, the
// survivors sorted whole — kept as the reference the kernel must agree
// with entry for entry. An empty list stands for ErrNoCandidates.
func topNBySort(r *Recommender, u hin.NodeID, scores ppr.Vector, n int) []Scored {
	var all []Scored
	for v := range scores {
		if id := hin.NodeID(v); r.IsCandidate(u, id) {
			all = append(all, Scored{Node: id, Score: scores[v]})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		return fmath.Before(all[i].Score, all[j].Score, int(all[i].Node), int(all[j].Node))
	})
	return all[:min(n, len(all))]
}

// rankGraph is a seeded random user–item–category graph with node
// types interleaved (item ids are not contiguous) and the shapes a
// ranking must get right: twin items with identical in-neighbourhoods
// (exact score ties), isolated items (unreached, score 0, tied with each
// other) and a user who rated every item (zero candidates).
type rankGraph struct {
	g            *hin.Graph
	cfg          Config
	rated        hin.EdgeTypeID
	users, items []hin.NodeID
	twins        [2]hin.NodeID
	sated        hin.NodeID // rated every item
}

func newRankGraph(t testing.TB, seed int64, beta float64) *rankGraph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := hin.NewGraph()
	user, item, cat := g.Types().NodeType("user"), g.Types().NodeType("item"), g.Types().NodeType("category")
	rg := &rankGraph{g: g, rated: g.Types().EdgeType("rated")}
	belongs := g.Types().EdgeType("belongs-to")
	var cats, isolated []hin.NodeID
	for i := 0; i < 90; i++ {
		switch k := rng.Intn(9); {
		case k < 2:
			rg.users = append(rg.users, g.AddNode(user, ""))
		case k < 8:
			rg.items = append(rg.items, g.AddNode(item, ""))
		default:
			cats = append(cats, g.AddNode(cat, ""))
		}
	}
	cats = append(cats, g.AddNode(cat, ""))
	rg.users = append(rg.users, g.AddNode(user, ""))
	link := func(a, b hin.NodeID, typ hin.EdgeTypeID, w float64) {
		t.Helper()
		if g.HasEdge(a, b) {
			return
		}
		if err := g.AddBidirectional(a, b, typ, w); err != nil {
			t.Fatal(err)
		}
	}
	for _, it := range rg.items {
		link(it, cats[rng.Intn(len(cats))], belongs, 1)
	}
	for _, u := range rg.users {
		for n := 2 + rng.Intn(8); n > 0; n-- {
			link(u, rg.items[rng.Intn(len(rg.items))], rg.rated, 0.5+rng.Float64())
		}
	}
	// Twins: one category and one rater each, the same ones at the same
	// weights, added last so no random edge tells them apart.
	rg.twins = [2]hin.NodeID{g.AddNode(item, ""), g.AddNode(item, "")}
	for _, tw := range rg.twins {
		link(tw, cats[0], belongs, 1)
		link(tw, rg.users[0], rg.rated, 1)
	}
	for i := 0; i < 3; i++ {
		isolated = append(isolated, g.AddNode(item, ""))
	}
	rg.sated = g.AddNode(user, "")
	rg.items = append(append(rg.items, rg.twins[:]...), isolated...)
	for _, it := range rg.items {
		if err := g.AddEdge(rg.sated, it, rg.rated, 1); err != nil { // one-way: nobody reaches sated
			t.Fatal(err)
		}
	}
	rg.users = append(rg.users, rg.sated)
	rg.cfg = DefaultConfig(item)
	rg.cfg.Beta = beta
	return rg
}

// checkRanking holds every ranking read of r for user u against the
// scan-and-sort reference on r's own score vector.
func checkRanking(t *testing.T, name string, r *Recommender, u hin.NodeID) {
	t.Helper()
	scores, err := r.Scores(u)
	if err != nil {
		t.Fatal(err)
	}
	full := topNBySort(r, u, scores, math.MaxInt)
	if len(full) == 0 {
		if top, err := r.TopN(u, 3); !errors.Is(err, ErrNoCandidates) {
			t.Fatalf("%s user %d: TopN = %v, %v, want ErrNoCandidates", name, u, top, err)
		}
		if _, err := r.Recommend(u); !errors.Is(err, ErrNoCandidates) {
			t.Fatalf("%s user %d: Recommend err = %v, want ErrNoCandidates", name, u, err)
		}
		if top := r.TopOf(u, scores); top != hin.InvalidNode {
			t.Fatalf("%s user %d: TopOf = %d, want InvalidNode", name, u, top)
		}
		return
	}
	for _, n := range []int{1, 2, 10, len(full), len(full) + 3, math.MaxInt32} {
		got, err := r.TopN(u, n)
		if err != nil {
			t.Fatal(err)
		}
		if want := full[:min(n, len(full))]; !reflect.DeepEqual(got, want) {
			t.Fatalf("%s user %d n=%d:\n got %v\nwant %v", name, u, n, got, want)
		}
	}
	if top := r.TopOf(u, scores); top != full[0].Node {
		t.Fatalf("%s user %d: TopOf = %d, want %d", name, u, top, full[0].Node)
	}
	if top, err := r.Recommend(u); err != nil || top != full[0].Node {
		t.Fatalf("%s user %d: Recommend = %d, %v, want %d", name, u, top, err, full[0].Node)
	}
	for i, sc := range full {
		// The rank within a cut-off: found at the boundary k = rank and
		// above it, cut one below.
		for k, want := range map[int]int{i: 0, i + 1: i + 1, i + 2: i + 1, math.MaxInt: i + 1} {
			if got := r.RankWithin(u, sc.Node, scores, k); k > 0 && got != want {
				t.Fatalf("%s user %d: RankWithin(%d, k=%d) = %d, want %d", name, u, sc.Node, k, got, want)
			}
		}
		if i%7 == 0 || i == len(full)-1 {
			if rank, err := r.RankOf(u, sc.Node); err != nil || rank != i+1 {
				t.Fatalf("%s user %d: RankOf(%d) = %d, %v, want %d", name, u, sc.Node, rank, err, i+1)
			}
		}
	}
}

// TestRankingKernelMatchesScanAndSort: over seeded random graphs, every
// ranking read — TopN at list sizes around the boundaries, Recommend,
// RankOf and the vector-level TopOf / RankWithin — agrees with the
// scan-and-sort reference, on recommenders from New, WithCache,
// WithView and WithUserPatch, the last two over an overlay that adds an
// edge (a candidate disappears) and one that removes an edge (a
// candidate returns).
func TestRankingKernelMatchesScanAndSort(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		beta := []float64{1, 0.5}[seed%2]
		rg := newRankGraph(t, seed, beta)
		r, err := New(rg.g, rg.cfg)
		if err != nil {
			t.Fatal(err)
		}
		cached := r.WithCache(pprcache.New(pprcache.Config{}))
		for i, u := range rg.users {
			checkRanking(t, "WithCache", cached, u)
			if i < 2 || u == rg.sated { // every uncached read is a push
				checkRanking(t, "New", r, u)
			}
		}

		// The fixture's shapes are really there: the twins tie exactly
		// at a positive score for a user who rated neither, the isolated
		// items tie at zero, and the lower id comes first.
		u := rg.users[1]
		scores, err := r.Scores(u)
		if err != nil {
			t.Fatal(err)
		}
		a, b := rg.twins[0], rg.twins[1]
		if !(scores[a] > 0) || !fmath.Eq(scores[a], scores[b]) {
			t.Fatalf("seed %d: twins score %g and %g, want an exact positive tie", seed, scores[a], scores[b])
		}
		ra, _ := r.RankOf(u, a)
		rb, _ := r.RankOf(u, b)
		if rb != ra+1 {
			t.Fatalf("seed %d: tied twins at ranks %d and %d, want adjacent with the lower id first", seed, ra, rb)
		}
		all, err := r.TopN(u, math.MaxInt32)
		if err != nil {
			t.Fatal(err)
		}
		if last := all[len(all)-1]; !fmath.Eq(last.Score, 0) || last.Node != rg.items[len(rg.items)-1] {
			t.Fatalf("seed %d: last entry %+v, want the highest-id unreached item at score 0", seed, last)
		}

		// Counterfactuals on u's row: drop a rated item, add an unrated one.
		var gone, fresh hin.NodeID = hin.InvalidNode, all[len(all)/2].Node
		rg.g.OutEdges(u, func(h hin.HalfEdge) bool { gone = h.Node; return false })
		removal := []hin.Edge{{From: u, To: gone, Type: rg.rated}}
		addition := []hin.Edge{{From: u, To: fresh, Type: rg.rated, Weight: 1}}
		for name, edits := range map[string][2][]hin.Edge{
			"remove": {removal, nil}, "add": {nil, addition}, "both": {removal, addition},
		} {
			o, err := hin.NewOverlay(rg.g, edits[0], edits[1])
			if err != nil {
				t.Fatal(err)
			}
			view, patch := cached.WithView(o), r.WithUserPatch(o, u)
			checkRanking(t, "WithUserPatch/"+name, patch, u)
			for _, x := range rg.users {
				checkRanking(t, "WithView/"+name, view, x)
			}
			if name != "add" && !view.IsCandidate(u, gone) || name != "remove" && patch.IsCandidate(u, fresh) {
				t.Fatalf("seed %d %s: overlay did not move the candidate set", seed, name)
			}
		}
	}
}

// TestRankingConcurrentReaders: many handlers rank on one shared, warm
// recommender (the server's shape); run under -race. The kernel keeps
// its scratch on the caller's stack and only reads the shared index.
func TestRankingConcurrentReaders(t *testing.T) {
	rg := newRankGraph(t, 11, 0.5)
	r, err := New(rg.g, rg.cfg)
	if err != nil {
		t.Fatal(err)
	}
	r = r.WithCache(pprcache.New(pprcache.Config{}))
	r.Flat()
	want := map[hin.NodeID][]Scored{}
	for _, u := range rg.users[:len(rg.users)-1] {
		scores, err := r.Scores(u)
		if err != nil {
			t.Fatal(err)
		}
		want[u] = topNBySort(r, u, scores, 10)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				u := rg.users[(w+i)%(len(rg.users)-1)]
				got, err := r.TopNContext(context.Background(), u, 10)
				if err != nil || !reflect.DeepEqual(got, want[u]) {
					t.Errorf("user %d: TopNContext = %v, %v, want %v", u, got, err, want[u])
					return
				}
				if top := r.TopOf(u, mustScores(t, r, u)); top != want[u][0].Node {
					t.Errorf("user %d: TopOf = %d, want %d", u, top, want[u][0].Node)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func mustScores(t *testing.T, r *Recommender, u hin.NodeID) ppr.Vector {
	t.Helper()
	scores, err := r.Scores(u)
	if err != nil {
		t.Error(err)
	}
	return scores
}

// TestRankingAllocations pins the kernel's allocation budget: the
// vector-level top-1 and rank reads allocate nothing and a top-10 list
// allocates its result and nothing else. TopNContext is ScoresContext
// plus TopNOf, so on a warm cache that one slice is all it adds to the
// cache lookup (whose own allocations — the engine identity string and
// the compute closure — belong to ppr and pprcache).
func TestRankingAllocations(t *testing.T) {
	rg := newRankGraph(t, 3, 0.5)
	r, err := New(rg.g, rg.cfg)
	if err != nil {
		t.Fatal(err)
	}
	u := rg.users[1]
	scores, err := r.Scores(u)
	if err != nil {
		t.Fatal(err)
	}
	tenth := r.selectInto(u, scores, make([]Scored, 0, 10))[9].Node
	for _, tc := range []struct {
		name string
		max  float64
		read func()
	}{
		{"TopOf", 0, func() { r.TopOf(u, scores) }},
		{"RankWithin", 0, func() { r.RankWithin(u, tenth, scores, 10) }},
		{"top-10", 1, func() { r.selectInto(u, scores, make([]Scored, 0, 10)) }},
	} {
		if got := testing.AllocsPerRun(100, tc.read); got > tc.max {
			t.Errorf("%s: %g allocations per run, want at most %g", tc.name, got, tc.max)
		}
	}
}

package rec

import (
	"errors"
	"math"
	"math/rand"
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

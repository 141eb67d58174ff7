package rec

import (
	"context"
	"math"
	"testing"

	"github.com/why-not-xai/emigre/internal/hin"
	"github.com/why-not-xai/emigre/internal/ppr"
	"github.com/why-not-xai/emigre/internal/pprcache"
)

// counterfactualShop binds a WithUserPatch recommender editing u1's row
// (drop i1, add i4) alongside the base recommender.
func counterfactualShop(t *testing.T, beta float64) (*Recommender, *Recommender, hin.NodeID) {
	t.Helper()
	g, cfg, ids := smallShop(t)
	cfg.Beta = beta
	r, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	u := ids["u1"]
	rated, _ := g.Types().LookupEdgeType("rated")
	o, err := hin.NewOverlay(g,
		[]hin.Edge{{From: u, To: ids["i1"], Type: rated, Weight: 1}},
		[]hin.Edge{{From: u, To: ids["i4"], Type: rated, Weight: 2}})
	if err != nil {
		t.Fatal(err)
	}
	return r, r.WithUserPatch(o, u), u
}

// TestScoresContextCaches pins the vector path the explainer's session
// base reads: with a cache attached a repeat call is a hit on the very
// vector the first stored, and its scores are the uncached ones.
func TestScoresContextCaches(t *testing.T) {
	g, cfg, ids := smallShop(t)
	r, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	u := ids["u1"]
	plain, err := r.ScoresContext(ctx, u)
	if err != nil {
		t.Fatal(err)
	}

	cached := r.WithCache(pprcache.New(pprcache.Config{}))
	vec, err := cached.ScoresContext(ctx, u)
	if err != nil {
		t.Fatal(err)
	}
	vec2, err := cached.ScoresContext(ctx, u)
	if err != nil {
		t.Fatal(err)
	}
	if &vec2[0] != &vec[0] {
		t.Fatal("second call did not hit the resident vector")
	}
	for v := range plain {
		if plain[v] != vec[v] {
			t.Fatalf("score[%d]: %g uncached vs %g cached", v, plain[v], vec[v])
		}
	}
	if s := cached.Cache().Stats(); s.Misses != 1 || s.Hits != 1 || s.Upgrades != 0 {
		t.Fatalf("cache stats = %+v, want 1 miss / 1 hit / no upgrade", s)
	}
}

// TestScoresContextWithoutCache: without a cache every call recomputes
// the same scores afresh into a vector of its own.
func TestScoresContextWithoutCache(t *testing.T) {
	g, cfg, ids := smallShop(t)
	r, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	u := ids["u1"]
	plain, err := r.ScoresContext(ctx, u)
	if err != nil {
		t.Fatal(err)
	}
	again, err := r.ScoresContext(ctx, u)
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] == &plain[0] {
		t.Fatal("an uncached recommender returned a shared vector")
	}
	for v := range plain {
		if plain[v] != again[v] {
			t.Fatalf("score[%d]: %g then %g", v, plain[v], again[v])
		}
	}
}

// TestWarmScoresMatchesColdScores is the warm-start contract over a
// recommender's counterfactual snapshot: resuming the base recommender's
// push state over the WithUserPatch snapshot reproduces a cold recompute
// within the push tolerance, for both the plain walk and the paper's
// β-mix.
func TestWarmScoresMatchesColdScores(t *testing.T) {
	for _, beta := range []float64{1, 0.5} {
		base, patched, u := counterfactualShop(t, beta)
		ctx := context.Background()
		fwd := ppr.NewForwardPush(base.Config().PPR)
		baseRes, err := fwd.RunContext(ctx, base.ScoringView(), u)
		if err != nil {
			t.Fatal(err)
		}
		var sc ppr.UpdateScratch
		warm, err := fwd.UpdateForEdit(ctx, base.ScoringView(), patched.ScoringView(), baseRes, []hin.NodeID{u}, &sc)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := patched.ScoresContext(ctx, u)
		if err != nil {
			t.Fatal(err)
		}
		for v := range cold {
			if diff := math.Abs(cold[v] - warm.Estimates[v]); diff > 1e-6 {
				t.Fatalf("beta=%g: score[%d] cold %g vs warm %g (diff %g)",
					beta, v, cold[v], warm.Estimates[v], diff)
			}
		}
	}
}

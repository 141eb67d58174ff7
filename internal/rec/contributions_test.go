package rec

import (
	"context"
	"math"
	"reflect"
	"testing"

	"github.com/why-not-xai/emigre/internal/obs"
	"github.com/why-not-xai/emigre/internal/ppr"
	"github.com/why-not-xai/emigre/internal/pprcache"
)

func TestContributionsSumToScore(t *testing.T) {
	for _, beta := range []float64{1, 0.5} {
		g, cfg, ids := smallShop(t)
		cfg.Beta = beta
		cfg.PPR.Epsilon = 1e-10
		r, err := New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		u, target := ids["u1"], ids["i3"]
		contribs, err := r.Contributions(u, target)
		if err != nil {
			t.Fatal(err)
		}
		if len(contribs) != g.OutDegree(u) {
			t.Fatalf("got %d contributions, want %d", len(contribs), g.OutDegree(u))
		}
		var sum, transSum float64
		for _, c := range contribs {
			sum += c.Share
			transSum += c.Transition
		}
		scores, err := r.ScoresContext(context.Background(), u)
		if err != nil {
			t.Fatal(err)
		}
		if diff := math.Abs(sum - scores[target]); diff > 1e-6 {
			t.Fatalf("beta=%g: shares sum to %g, score is %g", beta, sum, scores[target])
		}
		if math.Abs(transSum-1) > 1e-9 {
			t.Fatalf("beta=%g: transitions sum to %g, want 1", beta, transSum)
		}
		// Sorted descending by share.
		for i := 1; i < len(contribs); i++ {
			if contribs[i-1].Share < contribs[i].Share {
				t.Fatal("contributions not sorted")
			}
		}
	}
}

func TestContributionsSelfTargetIncludesAlpha(t *testing.T) {
	// For u == target the decomposition misses only the α teleport
	// term.
	g, cfg, ids := smallShop(t)
	cfg.PPR.Epsilon = 1e-10
	r, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	u := ids["u1"]
	contribs, err := r.Contributions(u, u)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, c := range contribs {
		sum += c.Share
	}
	col, err := ppr.NewReversePush(cfg.PPR).ToTargetContext(context.Background(), r.ScoringView(), u)
	if err != nil {
		t.Fatal(err)
	}
	want := col[u] - cfg.PPR.Alpha
	if diff := math.Abs(sum - want); diff > 1e-6 {
		t.Fatalf("self-target shares %g, want %g", sum, want)
	}
}

func TestContributionsErrorsAndDangling(t *testing.T) {
	g, cfg, ids := smallShop(t)
	r, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Contributions(999, ids["i1"]); err == nil {
		t.Fatal("expected range error")
	}
	if _, err := r.Contributions(ids["u1"], -1); err == nil {
		t.Fatal("expected range error")
	}
	// A dangling node yields no contributions and no error.
	iso := g.AddNode(g.Types().NodeType("user"), "")
	r2, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	contribs, err := r2.Contributions(iso, ids["i1"])
	if err != nil {
		t.Fatal(err)
	}
	if len(contribs) != 0 {
		t.Fatal("dangling node should have no contributions")
	}
}

// TestContributionsColumnCached: a recommender with a cache serves
// Contributions' column PPR(·,target) through it, so a second call for
// the same target runs no reverse push and reads the first call's
// vector.
func TestContributionsColumnCached(t *testing.T) {
	g, cfg, ids := smallShop(t)
	plain, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := plain.WithCache(pprcache.New(pprcache.Config{}))
	runs := obs.Default().Counter("emigre_ppr_runs_total",
		"Completed PPR engine runs by engine.", obs.L("engine", "reverse_push"))
	u, target := ids["u1"], ids["i3"]
	before := runs.Value()
	first, err := r.Contributions(u, target)
	if err != nil {
		t.Fatal(err)
	}
	if got := runs.Value() - before; got != 1 {
		t.Fatalf("first Contributions call ran %d reverse pushes, want 1", got)
	}
	before = runs.Value()
	again, err := r.Contributions(u, target)
	if err != nil {
		t.Fatal(err)
	}
	if got := runs.Value() - before; got != 0 {
		t.Fatalf("second Contributions call for the same target ran %d reverse pushes, want 0", got)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("cached contributions differ:\nfirst %+v\nagain %+v", first, again)
	}
	if s := r.Cache().Stats(); s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("cache stats = %+v, want 1 miss / 1 hit", s)
	}
}

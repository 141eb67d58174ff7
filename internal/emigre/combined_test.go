package emigre

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"github.com/why-not-xai/emigre/internal/hin"
	"github.com/why-not-xai/emigre/internal/rec"
)

func TestCombinedModeAllMethods(t *testing.T) {
	for _, method := range []Method{Incremental, Powerset, Exhaustive, ExhaustiveDirect} {
		t.Run(method.String(), func(t *testing.T) {
			f := newFixture(t, Options{})
			expl, err := f.ex.ExplainWith(f.query(), Combined, method)
			if err != nil {
				t.Fatalf("ExplainWith: %v", err)
			}
			if len(expl.Removals)+len(expl.Additions) != expl.Size() {
				t.Fatalf("removals(%d)+additions(%d) != size(%d)",
					len(expl.Removals), len(expl.Additions), expl.Size())
			}
			// Removals must exist in the graph; additions must not.
			for _, e := range expl.Removals {
				if _, ok := f.g.EdgeWeight(e.From, e.To, e.Type); !ok {
					t.Fatalf("removal %v does not exist", e)
				}
			}
			for _, e := range expl.Additions {
				if hasEdge(f.g, e.From, e.To) {
					t.Fatalf("addition %v already exists", e)
				}
			}
			ok, err := f.ex.Verify(expl)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("combined explanation %v/%v does not verify", expl.Removals, expl.Additions)
			}
		})
	}
}

func TestCombinedBruteForceRejected(t *testing.T) {
	f := newFixture(t, Options{})
	if _, err := f.ex.ExplainWith(f.query(), Combined, BruteForce); !errors.Is(err, ErrBruteForceAddMode) {
		t.Fatalf("err = %v, want ErrBruteForceAddMode", err)
	}
}

func TestCombinedSearchSpaceIsUnion(t *testing.T) {
	f := newFixture(t, Options{})
	sr, err := f.ex.newSession(context.Background(), f.query(), nil, Remove, Powerset)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := f.ex.newSession(context.Background(), f.query(), nil, Add, Powerset)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := f.ex.newSession(context.Background(), f.query(), nil, Combined, Powerset)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.cands) != len(sr.cands)+len(sa.cands) {
		t.Fatalf("combined |H| = %d, want %d + %d", len(sc.cands), len(sr.cands), len(sa.cands))
	}
	removeOps, addOps := 0, 0
	for _, c := range sc.cands {
		switch c.op {
		case Remove:
			removeOps++
		case Add:
			addOps++
		default:
			t.Fatalf("candidate with op %v", c.op)
		}
	}
	if removeOps != len(sr.cands) || addOps != len(sa.cands) {
		t.Fatalf("op split %d/%d, want %d/%d", removeOps, addOps, len(sr.cands), len(sa.cands))
	}
	// Same tau in all three modes (it is always the remove-style gap).
	if sc.tau != sr.tau || sc.tau != sa.tau {
		t.Fatalf("tau differs across modes: %g / %g / %g", sr.tau, sa.tau, sc.tau)
	}
}

func TestCombinedDescribeMixed(t *testing.T) {
	f := newFixture(t, Options{})
	rated := f.rated
	expl := &Explanation{
		Query:     f.query(),
		Mode:      Combined,
		Removals:  []hin.Edge{{From: f.ids["u"], To: f.ids["p1"], Type: rated, Weight: 1}},
		Additions: []hin.Edge{{From: f.ids["u"], To: f.ids["f3"], Type: rated, Weight: 1}},
	}
	text := expl.Describe(f.g)
	if !strings.Contains(text, "Had you not interacted with p1 but interacted with f3") {
		t.Fatalf("mixed description wrong: %q", text)
	}
}

func TestVerifyMixedExplanation(t *testing.T) {
	// Hand-build a mixed counterfactual and push it through Verify: the
	// mechanics must apply removals and additions in one overlay.
	f := newFixture(t, Options{})
	rated := f.rated
	expl := &Explanation{
		Query: f.query(),
		Mode:  Combined,
		Removals: []hin.Edge{
			{From: f.ids["u"], To: f.ids["p1"], Type: rated, Weight: 1},
			{From: f.ids["u"], To: f.ids["p2"], Type: rated, Weight: 1},
		},
		Additions: []hin.Edge{
			{From: f.ids["u"], To: f.ids["f3"], Type: rated, Weight: 1},
		},
	}
	ok, err := f.ex.Verify(expl)
	if err != nil {
		t.Fatal(err)
	}
	// Independently compute the outcome.
	ref, err := edited(f.g, expl.Removals, expl.Additions)
	if err != nil {
		t.Fatal(err)
	}
	top, err := rebuilt(f.r, ref).Recommend(f.ids["u"])
	if err != nil {
		t.Fatal(err)
	}
	if ok != (top == f.query().WNI) {
		t.Fatalf("Verify = %v but replay top = %v", ok, f.g.Label(top))
	}
}

// TestCombinedSolvesOutOfScopeScenario builds the §6.4 "out of scope"
// case: neither pure mode can promote the Why-Not item within a
// 1-candidate budget, but mixing one removal with one addition can.
func TestCombinedSolvesRandomScenariosAtLeastAsOftenAsPureModes(t *testing.T) {
	rng := rand.New(rand.NewSource(515))
	combinedWins, pureWins := 0, 0
	for trial := 0; trial < 20; trial++ {
		g := hin.NewGraph()
		user := g.Types().NodeType("user")
		item := g.Types().NodeType("item")
		rated := g.Types().EdgeType("rated")
		nUsers, nItems := 4+rng.Intn(3), 8+rng.Intn(6)
		for i := 0; i < nUsers; i++ {
			g.AddNode(user, "")
		}
		for i := 0; i < nItems; i++ {
			g.AddNode(item, "")
		}
		for i := 0; i < nUsers*4; i++ {
			u := hin.NodeID(rng.Intn(nUsers))
			it := hin.NodeID(nUsers + rng.Intn(nItems))
			if !hasEdge(g, u, it) {
				_ = g.AddBidirectional(u, it, rated, 1+rng.Float64()*3)
			}
		}
		cfg := rec.DefaultConfig(item)
		cfg.Beta = 1
		r, err := rec.New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ex := New(g, r, Options{AllowedEdgeTypes: hin.NewEdgeTypeSet(rated), AddEdgeType: rated})
		u := hin.NodeID(rng.Intn(nUsers))
		top, err := r.TopN(u, 4)
		if err != nil || len(top) < 2 {
			continue
		}
		q := Query{User: u, WNI: top[len(top)-1].Node}
		pure := false
		for _, mode := range []Mode{Remove, Add} {
			if _, err := ex.ExplainWith(q, mode, Exhaustive); err == nil {
				pure = true
				break
			}
		}
		combined := false
		if _, err := ex.ExplainWith(q, Combined, Exhaustive); err == nil {
			combined = true
		}
		if pure {
			pureWins++
		}
		if combined {
			combinedWins++
		}
	}
	// Combined subsumes both search spaces; with the exhaustive strategy
	// it should succeed at least as often as the pure modes on this
	// sample (heuristics could in principle diverge, so compare counts,
	// not per-scenario implication).
	if combinedWins < pureWins {
		t.Fatalf("combined solved %d scenarios, pure modes solved %d", combinedWins, pureWins)
	}
}

package emigre_test

import (
	"testing"

	emigre "github.com/why-not-xai/emigre"
)

// TestFacadeGraphConstruction exercises the graph-building wrappers end
// to end without touching internal packages.
func TestFacadeGraphConstruction(t *testing.T) {
	g := emigre.NewGraph()
	user := g.Types().NodeType("user")
	item := g.Types().NodeType("item")
	rated := g.Types().EdgeType("rated")
	u := g.AddNode(user, "u")
	a := g.AddNode(item, "a")
	b := g.AddNode(item, "b")
	if err := g.AddBidirectional(u, a, rated, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddBidirectional(u, b, rated, 2); err != nil {
		t.Fatal(err)
	}
	set := emigre.NewEdgeTypeSet(rated)
	if !set.Contains(rated) {
		t.Fatal("edge type set broken")
	}
	rows := emigre.DegreeStats(g)
	if len(rows) != 2 {
		t.Fatalf("DegreeStats rows = %d, want 2", len(rows))
	}
}

// TestFacadeModesComplete checks all exported modes and methods resolve
// and carry distinct names.
func TestFacadeModesComplete(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range []emigre.Mode{emigre.Remove, emigre.Add, emigre.Combined, emigre.Reweight} {
		if seen[m.String()] {
			t.Fatalf("duplicate mode name %q", m)
		}
		seen[m.String()] = true
	}
	for _, m := range []emigre.Method{emigre.Incremental, emigre.Powerset, emigre.Exhaustive,
		emigre.ExhaustiveDirect, emigre.BruteForce} {
		if seen[m.String()] {
			t.Fatalf("duplicate method name %q", m)
		}
		seen[m.String()] = true
	}
	for _, k := range []emigre.FailureKind{emigre.FailureNone, emigre.FailureColdStart,
		emigre.FailureOutOfScope, emigre.FailurePopularItem} {
		if seen[k.String()] {
			t.Fatalf("duplicate failure kind %q", k)
		}
		seen[k.String()] = true
	}
}

// TestFacadeDiagnose exercises the meta-explanation API through the
// facade.
func TestFacadeDiagnose(t *testing.T) {
	books, err := emigre.NewBooks()
	if err != nil {
		t.Fatal(err)
	}
	cfg := emigre.DefaultRecommenderConfig(books.Types.Item)
	if cfg.PPR != emigre.DefaultPPRParams() || cfg.PPR.Alpha != 0.15 || cfg.PPR.Epsilon != 2.7e-8 {
		t.Fatalf("default params are not the paper's: %+v", cfg.PPR)
	}
	cfg.Beta = 1
	r, err := emigre.NewRecommender(books.Graph, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ex := emigre.NewExplainer(books.Graph, r, emigre.Options{
		AllowedEdgeTypes: books.ActionEdgeTypes(),
		AddEdgeType:      books.Types.Rated,
	})
	d, err := ex.Diagnose(emigre.Query{User: books.Paul, WNI: books.HarryPotter}, emigre.Remove)
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != emigre.FailureNone {
		t.Fatalf("the books question is answerable; got %v", d.Kind)
	}
}

// TestFacadeCombinedAndReweight runs the extension modes through the
// public API.
func TestFacadeCombinedAndReweight(t *testing.T) {
	books, err := emigre.NewBooks()
	if err != nil {
		t.Fatal(err)
	}
	cfg := emigre.DefaultRecommenderConfig(books.Types.Item)
	cfg.Beta = 1
	r, err := emigre.NewRecommender(books.Graph, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ex := emigre.NewExplainer(books.Graph, r, emigre.Options{
		AllowedEdgeTypes: books.ActionEdgeTypes(),
		AddEdgeType:      books.Types.Rated,
		ReweightTo:       5,
	})
	q := emigre.Query{User: books.Paul, WNI: books.HarryPotter}
	expl, err := ex.ExplainWith(q, emigre.Combined, emigre.Powerset)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := ex.Verify(expl)
	if err != nil || !ok {
		t.Fatalf("combined explanation failed verification: %v", err)
	}
	// Reweight may or may not find an answer on this graph; it must not
	// error in an unexpected way.
	if _, err := ex.ExplainWith(q, emigre.Reweight, emigre.Powerset); err != nil &&
		err.Error() == "" {
		t.Fatal("unexpected empty error")
	}
}

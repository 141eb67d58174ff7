package emigre_test

import (
	"bytes"
	"testing"

	emigre "github.com/why-not-xai/emigre"
	"github.com/why-not-xai/emigre/internal/ppr"
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
	o, err := emigre.NewOverlay(g, []emigre.Edge{{From: u, To: a, Type: rated, Weight: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.HasEdge(u, a) {
		t.Fatal("overlay removal not applied")
	}
	set := emigre.NewEdgeTypeSet(rated)
	if !set.Contains(rated) {
		t.Fatal("edge type set broken")
	}
	rows := emigre.DegreeStats(g)
	if len(rows) != 2 {
		t.Fatalf("DegreeStats rows = %d, want 2", len(rows))
	}
	var buf bytes.Buffer
	if err := g.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := emigre.ReadGraphTSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != g.NumEdges() {
		t.Fatal("TSV round trip lost edges")
	}
}

// TestFacadePPREngines runs each engine wrapper once on the books graph.
func TestFacadePPREngines(t *testing.T) {
	books, err := emigre.NewBooks()
	if err != nil {
		t.Fatal(err)
	}
	params := emigre.DefaultPPRParams()
	if params.Alpha != 0.15 || params.Epsilon != 2.7e-8 {
		t.Fatalf("default params are not the paper's: %+v", params)
	}
	fwd, err := emigre.NewForwardPushEngine(params).FromSource(books.Graph, books.Paul)
	if err != nil {
		t.Fatal(err)
	}
	pow, err := ppr.NewPower(params).FromSource(books.Graph, books.Paul)
	if err != nil {
		t.Fatal(err)
	}
	if fwd.ArgMax() != pow.ArgMax() {
		t.Fatal("power and push disagree on the argmax")
	}
	rev, err := emigre.NewReversePushEngine(params).ToTarget(books.Graph, books.Python)
	if err != nil {
		t.Fatal(err)
	}
	if rev[books.Paul] <= 0 {
		t.Fatal("reverse push found no mass from Paul to Python")
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

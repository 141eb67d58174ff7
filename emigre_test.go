package emigre_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	emigre "github.com/why-not-xai/emigre"
)

// TestPublicAPIQuickstart exercises the README quickstart end to end
// through the facade only.
func TestPublicAPIQuickstart(t *testing.T) {
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
	top, err := r.Recommend(books.Paul)
	if err != nil {
		t.Fatal(err)
	}
	if books.Graph.Label(top) != "Python" {
		t.Fatalf("recommendation = %q, want Python", books.Graph.Label(top))
	}
	ex := emigre.NewExplainer(books.Graph, r, emigre.Options{
		AllowedEdgeTypes: books.ActionEdgeTypes(),
		AddEdgeType:      books.Types.Rated,
	})
	q := emigre.Query{User: books.Paul, WNI: books.HarryPotter}

	rm, err := ex.ExplainWith(q, emigre.Remove, emigre.Powerset)
	if err != nil {
		t.Fatal(err)
	}
	if rm.Size() != 2 {
		t.Fatalf("Figure 1a explanation size = %d, want 2 (Candide, C)", rm.Size())
	}
	got := map[string]bool{}
	for _, e := range rm.Edges {
		got[books.Graph.Label(e.To)] = true
	}
	if !got["Candide"] || !got["C"] {
		t.Fatalf("Figure 1a explanation = %v, want {Candide, C}", got)
	}

	ad, err := ex.ExplainWith(q, emigre.Add, emigre.Powerset)
	if err != nil {
		t.Fatal(err)
	}
	if ad.Size() != 1 || books.Graph.Label(ad.Edges[0].To) != "The Lord of the Rings" {
		t.Fatalf("Figure 1b explanation = %v, want {The Lord of the Rings}", ad.Edges)
	}
}

// TestPrinceContrast pins the paper's Figure-2 result through the
// public API: PRINCE removes {C} and lands on The Alchemist.
func TestPrinceContrast(t *testing.T) {
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
	pr := emigre.NewPrinceExplainer(books.Graph, r, emigre.PrinceOptions{
		AllowedEdgeTypes: books.ActionEdgeTypes(),
	})
	cfe, err := pr.Explain(books.Paul)
	if err != nil {
		t.Fatal(err)
	}
	if cfe.NewTop != books.TheAlchemist {
		t.Fatalf("PRINCE replacement = %q, want The Alchemist", books.Graph.Label(cfe.NewTop))
	}
	if len(cfe.Edges) != 1 || books.Graph.Label(cfe.Edges[0].To) != "C" {
		t.Fatalf("PRINCE CFE = %v, want {C}", cfe.Edges)
	}
	if cfe.NewTop == books.HarryPotter {
		t.Fatal("PRINCE must not answer the Why-Not question in this fixture")
	}
}

func TestGraphRoundTripThroughFacade(t *testing.T) {
	books, err := emigre.NewBooks()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := books.Graph.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := emigre.ReadGraphJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != books.Graph.NumNodes() || g.NumEdges() != books.Graph.NumEdges() {
		t.Fatal("round trip changed the graph")
	}
	paul, ok := g.NodeByLabel("Paul")
	if !ok {
		t.Fatal("labels lost in round trip")
	}
	if paul != books.Paul {
		t.Fatal("node ids changed in round trip")
	}
}

func TestFacadeErrorsExposed(t *testing.T) {
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
	_, err = ex.ExplainWith(emigre.Query{User: books.Paul, WNI: books.Candide}, emigre.Remove, emigre.Powerset)
	if !errors.Is(err, emigre.ErrNotWhyNotItem) {
		t.Fatalf("err = %v, want ErrNotWhyNotItem", err)
	}
	_, err = ex.ExplainWith(emigre.Query{User: books.Paul, WNI: books.Python}, emigre.Remove, emigre.Powerset)
	if !errors.Is(err, emigre.ErrAlreadyTop) {
		t.Fatalf("err = %v, want ErrAlreadyTop", err)
	}
}

func TestEvalThroughFacade(t *testing.T) {
	cfg := emigre.SmallDatasetConfig()
	cfg.Users = 10
	cfg.Items = 120
	cfg.Categories = 4
	ds, err := emigre.GenerateDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := emigre.DefaultRecommenderConfig(ds.Types.Item)
	rcfg.PPR.Epsilon = 1e-6
	r, err := emigre.NewRecommender(ds.Graph, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	runner := emigre.NewEvalRunner(ds.Graph, r)
	results, err := runner.Run(emigre.EvalConfig{
		Users:               ds.Users[:4],
		TopN:                5,
		MaxScenariosPerUser: 1,
		Methods:             emigre.PaperMethods()[:2],
		Explainer: emigre.Options{
			AllowedEdgeTypes: ds.UserActionEdgeTypes(),
			AddEdgeType:      ds.Types.Reviewed,
			MaxTests:         10,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := emigre.RenderFigure4(&buf, results); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "add_incremental") {
		t.Fatalf("figure output missing method:\n%s", buf.String())
	}
	buf.Reset()
	if err := emigre.RenderTable4(&buf, ds.Graph); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "review") {
		t.Fatalf("table 4 output missing review row:\n%s", buf.String())
	}
}

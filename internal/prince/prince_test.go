package prince

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/why-not-xai/emigre/internal/emigre"
	"github.com/why-not-xai/emigre/internal/hin"
	"github.com/why-not-xai/emigre/internal/rec"
)

// twoClusterGraph mirrors the emigre package fixture: user u is
// programming-leaning (rec = p3), fantasy item f2 is the runner-up.
func twoClusterGraph(t *testing.T) (*hin.Graph, *rec.Recommender, map[string]hin.NodeID, hin.EdgeTypeID) {
	t.Helper()
	g := hin.NewGraph()
	user := g.Types().NodeType("user")
	item := g.Types().NodeType("item")
	cat := g.Types().NodeType("category")
	rated := g.Types().EdgeType("rated")
	belongs := g.Types().EdgeType("belongs-to")

	ids := make(map[string]hin.NodeID)
	node := func(typ hin.NodeTypeID, name string) hin.NodeID {
		id := g.AddNode(typ, name)
		ids[name] = id
		return id
	}
	u := node(user, "u")
	v := node(user, "v")
	w := node(user, "w")
	x := node(user, "x")
	p1 := node(item, "p1")
	p2 := node(item, "p2")
	p3 := node(item, "p3")
	f1 := node(item, "f1")
	f2 := node(item, "f2")
	f3 := node(item, "f3")
	cP := node(cat, "cP")
	cF := node(cat, "cF")
	add := func(a, b hin.NodeID, typ hin.EdgeTypeID) {
		t.Helper()
		if err := g.AddBidirectional(a, b, typ, 1); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range []hin.NodeID{p1, p2, p3} {
		add(i, cP, belongs)
	}
	for _, i := range []hin.NodeID{f1, f2, f3} {
		add(i, cF, belongs)
	}
	add(u, p1, rated)
	add(u, p2, rated)
	add(u, f1, rated)
	add(v, p1, rated)
	add(v, p2, rated)
	add(v, p3, rated)
	add(w, f1, rated)
	add(w, f2, rated)
	add(w, f3, rated)
	add(x, f1, rated)
	add(x, f2, rated)

	cfg := rec.DefaultConfig(item)
	cfg.Beta = 1
	r, err := rec.New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g, r, ids, rated
}

func TestExplainChangesRecommendation(t *testing.T) {
	g, r, ids, rated := twoClusterGraph(t)
	p := New(g, r, Options{AllowedEdgeTypes: hin.NewEdgeTypeSet(rated)})
	cfe, err := p.Explain(ids["u"])
	if err != nil {
		t.Fatal(err)
	}
	if cfe.OldTop != ids["p3"] {
		t.Fatalf("OldTop = %v, want p3", cfe.OldTop)
	}
	if cfe.NewTop == cfe.OldTop {
		t.Fatal("counterfactual did not change the recommendation")
	}
	if len(cfe.Edges) == 0 || len(cfe.Edges) == 3 {
		t.Fatalf("CFE size = %d, want 1 or 2 (not empty, not all actions)", len(cfe.Edges))
	}
	// Soundness: apply the removals and confirm the change.
	full, err := rebuilt(r, g, cfe.Edges)
	if err != nil {
		t.Fatal(err)
	}
	newTop, err := full.Recommend(ids["u"])
	if err != nil {
		t.Fatal(err)
	}
	if newTop != cfe.NewTop {
		t.Fatalf("replayed new top %v != reported %v", newTop, cfe.NewTop)
	}
	// All removed edges are user actions of the allowed type.
	for _, e := range cfe.Edges {
		if e.From != ids["u"] || e.Type != rated {
			t.Fatalf("invalid removed action %v", e)
		}
	}
}

func TestPrinceAnswersADifferentQuestionThanEmigre(t *testing.T) {
	// The paper's Figure 1a vs Figure 2 contrast: a PRINCE CFE for the
	// current top item need not promote the user's Why-Not item.
	g, r, ids, rated := twoClusterGraph(t)
	p := New(g, r, Options{AllowedEdgeTypes: hin.NewEdgeTypeSet(rated)})
	cfe, err := p.Explain(ids["u"])
	if err != nil {
		t.Fatal(err)
	}
	// EMiGRe targets f3 — a weaker item PRINCE would never pick as its
	// replacement (PRINCE lands on the strongest runner-up).
	ex := emigre.New(g, r, emigre.Options{
		AllowedEdgeTypes: hin.NewEdgeTypeSet(rated),
		AddEdgeType:      rated,
	})
	wni := ids["f3"]
	if cfe.NewTop == wni {
		t.Skipf("fixture assumption broken: PRINCE replacement is f3")
	}
	expl, err := ex.ExplainWith(emigre.Query{User: ids["u"], WNI: wni}, emigre.Remove, emigre.Exhaustive)
	if errors.Is(err, emigre.ErrNoExplanation) {
		// Remove mode may genuinely have no answer for f3; Add mode must.
		expl, err = ex.ExplainWith(emigre.Query{User: ids["u"], WNI: wni}, emigre.Add, emigre.Exhaustive)
	}
	if err != nil {
		t.Fatal(err)
	}
	if expl.NewTop != wni {
		t.Fatalf("EMiGRe explanation promotes %v, want %v", expl.NewTop, wni)
	}
	// And the PRINCE CFE is NOT a Why-Not explanation for f3.
	full, err := rebuilt(r, g, cfe.Edges)
	if err != nil {
		t.Fatal(err)
	}
	top, err := full.Recommend(ids["u"])
	if err != nil {
		t.Fatal(err)
	}
	if top == wni {
		t.Fatal("PRINCE CFE accidentally promotes the Why-Not item; fixture too weak")
	}
}

func TestNoActionsNoCFE(t *testing.T) {
	g, r, ids, rated := twoClusterGraph(t)
	// Restrict removable actions to a type u does not use.
	other := g.Types().EdgeType("other")
	p := New(g, r, Options{AllowedEdgeTypes: hin.NewEdgeTypeSet(other)})
	if _, err := p.Explain(ids["u"]); !errors.Is(err, ErrNoCFE) {
		t.Fatalf("err = %v, want ErrNoCFE", err)
	}
	_ = rated
}

// TestQuickCFEAlwaysChangesRecommendation: whatever PRINCE returns on
// random graphs, replaying the removals must change the top-1.
func TestQuickCFEAlwaysChangesRecommendation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := hin.NewGraph()
		user := g.Types().NodeType("user")
		item := g.Types().NodeType("item")
		rated := g.Types().EdgeType("rated")
		nUsers, nItems := 3+rng.Intn(4), 6+rng.Intn(8)
		for i := 0; i < nUsers; i++ {
			g.AddNode(user, "")
		}
		for i := 0; i < nItems; i++ {
			g.AddNode(item, "")
		}
		for i := 0; i < nUsers*4; i++ {
			u := hin.NodeID(rng.Intn(nUsers))
			it := hin.NodeID(nUsers + rng.Intn(nItems))
			if _, dup := g.EdgeWeight(u, it, rated); !dup {
				_ = g.AddBidirectional(u, it, rated, 0.5+rng.Float64())
			}
		}
		cfg := rec.DefaultConfig(item)
		cfg.Beta = 1
		r, err := rec.New(g, cfg)
		if err != nil {
			return false
		}
		p := New(g, r, Options{AllowedEdgeTypes: hin.NewEdgeTypeSet(rated)})
		u := hin.NodeID(rng.Intn(nUsers))
		cfe, err := p.Explain(u)
		if err != nil {
			return true // no CFE on this instance is fine
		}
		full, err := rebuilt(r, g, cfe.Edges)
		if err != nil {
			return false
		}
		newTop, err := full.Recommend(u)
		if err != nil {
			return false
		}
		return newTop != cfe.OldTop && newTop == cfe.NewTop
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultsApplied(t *testing.T) {
	g, r, _, _ := twoClusterGraph(t)
	p := New(g, r, Options{})
	if p.opts.MaxReplacements != defaultMaxReplacements || p.opts.MaxTests != defaultMaxTests {
		t.Fatalf("defaults not applied: %+v", p.opts)
	}
}

// rebuilt is r's configuration and cache over a clone of g with the
// removals applied, flattened from scratch: the full-rebuild reference
// for a counterfactual.
func rebuilt(r *rec.Recommender, g *hin.Graph, removals []hin.Edge) (*rec.Recommender, error) {
	c := g.Clone()
	for _, e := range removals {
		if err := c.RemoveEdge(e.From, e.To, e.Type); err != nil {
			return nil, err
		}
	}
	full, err := rec.New(c, r.Config())
	if err != nil {
		return nil, err
	}
	return full.WithCache(r.Cache()), nil
}

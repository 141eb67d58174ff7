package rec

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"github.com/why-not-xai/emigre/internal/hin"
	"github.com/why-not-xai/emigre/internal/ppr"
)

// TestWithUserPatchEquivalentToRebuild compares full scoring through a
// recommender rebuilt over the edited graph (New over an edited clone)
// against the O(deg u) patched binding, for both β = 1 and the paper's
// β = 0.5 mix. The patched row carries exactly the β-mixed weights the
// flattened graph does, so forward scores agree to the bit. Contributions
// needs a reverse push, which a row-patched snapshot refuses.
func TestWithUserPatchEquivalentToRebuild(t *testing.T) {
	for _, beta := range []float64{1, 0.5} {
		g, cfg, ids := smallShop(t)
		cfg.Beta = beta
		r, err := New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		u := ids["u1"]
		rated, _ := g.Types().LookupEdgeType("rated")
		removals := []hin.Edge{{From: u, To: ids["i1"], Type: rated, Weight: 1}}
		additions := []hin.Edge{{From: u, To: ids["i4"], Type: rated, Weight: 2}}
		o, err := hin.NewOverlay(g, removals, additions)
		if err != nil {
			t.Fatal(err)
		}
		full, err := New(edited(t, g, removals, additions), cfg)
		if err != nil {
			t.Fatal(err)
		}
		patched := r.WithUserPatch(o, u)

		sf, err := full.ScoresContext(context.Background(), u)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := patched.ScoresContext(context.Background(), u)
		if err != nil {
			t.Fatal(err)
		}
		for v := range sf {
			if sf[v] != sp[v] {
				t.Fatalf("beta=%g: score[%d] full %g vs patched %g", beta, v, sf[v], sp[v])
			}
		}
		if cp, err := patched.Contributions(u, ids["i3"]); err == nil {
			t.Fatalf("beta=%g: contributions over a row-patched snapshot = %+v, want an error", beta, cp)
		}
		tf, err := full.TopN(u, 5)
		if err != nil {
			t.Fatal(err)
		}
		tp, err := patched.TopN(u, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(tf) != len(tp) {
			t.Fatalf("beta=%g: TopN lengths differ", beta)
		}
		for i := range tf {
			if tf[i].Node != tp[i].Node {
				t.Fatalf("beta=%g: TopN[%d] full %v vs patched %v", beta, i, tf[i], tp[i])
			}
		}
	}
}

func TestWithUserPatchDanglingUser(t *testing.T) {
	g, cfg, ids := smallShop(t)
	r, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	u := ids["u1"]
	rated, _ := g.Types().LookupEdgeType("rated")
	// Remove every outgoing edge of u1 (rated edges only in fixture).
	removals := g.OutEdgesOfType(u, hin.NewEdgeTypeSet())
	_ = rated
	o, err := hin.NewOverlay(g, removals, nil)
	if err != nil {
		t.Fatal(err)
	}
	patched := r.WithUserPatch(o, u)
	scores, err := patched.ScoresContext(context.Background(), u)
	if err != nil {
		t.Fatal(err)
	}
	// Isolated user: all mass stays at u (α of it), nothing else scored.
	for v := range scores {
		if hin.NodeID(v) == u {
			continue
		}
		if scores[v] != 0 {
			t.Fatalf("dangling user leaked score to node %d: %g", v, scores[v])
		}
	}
}

func TestConfigAndViewAccessors(t *testing.T) {
	g, cfg, _ := smallShop(t)
	r, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Config().Beta != cfg.Beta {
		t.Fatal("Config accessor wrong")
	}
	if r.View() == nil || r.ScoringView() == nil {
		t.Fatal("view accessors returned nil")
	}
}

// TestColumnSumsOnUnpatchedSnapshotsOnly: ColumnSums is ppr.ColumnSums of
// Flat(), built once and shared by WithCache copies; a recommender New
// builds over an edited graph has its own over its snapshot, and a
// WithUserPatch recommender, one row away from the snapshot the sums
// bound, has none.
func TestColumnSumsOnUnpatchedSnapshotsOnly(t *testing.T) {
	g, cfg, ids := smallShop(t)
	r, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sums := r.ColumnSums()
	if !reflect.DeepEqual(sums, ppr.ColumnSums(r.Flat(), cfg.PPR)) {
		t.Fatal("ColumnSums differs from ppr.ColumnSums of Flat()")
	}
	if c := r.WithCache(nil).ColumnSums(); &c[0] != &sums[0] {
		t.Fatal("a WithCache copy rebuilt the column sums")
	}
	u := ids["u1"]
	rated, _ := g.Types().LookupEdgeType("rated")
	removals := []hin.Edge{{From: u, To: ids["i1"], Type: rated, Weight: 1}}
	o, err := hin.NewOverlay(g, removals, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.WithUserPatch(o, u).ColumnSums() != nil {
		t.Fatal("a patched recommender claims column sums")
	}
	ref := edited(t, g, removals, nil)
	full, err := New(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c := full.ColumnSums(); !reflect.DeepEqual(c, ppr.ColumnSums(hin.NewMixedCSR(ref, cfg.Beta), cfg.PPR)) {
		t.Fatal("an edited graph's recommender's column sums are not its own snapshot's")
	}
}

// TestPatchedOverlayIsOneRow: WithUserPatch reads only u's row, so an
// edit to any other row would be silently dropped from the scores.
// NewOverlay rejects an edit list spanning two rows instead; a second
// row takes a recommender built over an edited graph.
func TestPatchedOverlayIsOneRow(t *testing.T) {
	g, _, ids := smallShop(t)
	rated, _ := g.Types().LookupEdgeType("rated")
	_, err := hin.NewOverlay(g, []hin.Edge{
		{From: ids["u1"], To: ids["i1"], Type: rated},
		{From: ids["i1"], To: ids["u1"], Type: rated},
	}, nil)
	if !errors.Is(err, hin.ErrMultiRow) {
		t.Fatalf("two-row overlay: err = %v, want hin.ErrMultiRow", err)
	}
}

// edited is a clone of g with the removals and then the additions
// applied by RemoveEdge and AddEdge: the full-rebuild reference a
// counterfactual overlay is checked against.
func edited(tb testing.TB, g *hin.Graph, removals, additions []hin.Edge) *hin.Graph {
	tb.Helper()
	c := g.Clone()
	for _, e := range removals {
		if err := c.RemoveEdge(e.From, e.To, e.Type); err != nil {
			tb.Fatal(err)
		}
	}
	for _, e := range additions {
		if err := c.AddEdge(e.From, e.To, e.Type, e.Weight); err != nil {
			tb.Fatal(err)
		}
	}
	return c
}

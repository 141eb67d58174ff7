package rec

import (
	"reflect"
	"testing"

	"github.com/why-not-xai/emigre/internal/hin"
)

// TestWithUserPatchEquivalentToWithView compares full scoring through a
// re-flattened overlay against the O(deg u) patched binding, for both
// β = 1 and the paper's β = 0.5 mix. The patched row carries exactly
// the β-mixed weights the flattened view does, so scores agree to the
// bit — forward, and through the reverse column behind
// Contributions (a reverse push over a row-patched snapshot).
func TestWithUserPatchEquivalentToWithView(t *testing.T) {
	for _, beta := range []float64{1, 0.5} {
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
		full := r.WithView(o)
		patched := r.WithUserPatch(o, u)

		sf, err := full.Scores(u)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := patched.Scores(u)
		if err != nil {
			t.Fatal(err)
		}
		for v := range sf {
			if sf[v] != sp[v] {
				t.Fatalf("beta=%g: score[%d] full %g vs patched %g", beta, v, sf[v], sp[v])
			}
		}
		cf, err := full.Contributions(u, ids["i3"])
		if err != nil {
			t.Fatal(err)
		}
		cp, err := patched.Contributions(u, ids["i3"])
		if err != nil {
			t.Fatal(err)
		}
		if len(cf) == 0 || !reflect.DeepEqual(cf, cp) {
			t.Fatalf("beta=%g: contributions full %+v vs patched %+v", beta, cf, cp)
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
	scores, err := patched.Scores(u)
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

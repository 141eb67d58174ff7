package emigre

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/why-not-xai/emigre/internal/hin"
	"github.com/why-not-xai/emigre/internal/rec"
)

// TestReweightFindsExplanation depresses the user's fantasy edge to a
// low weight so that raising it ("rate it 5 stars") can flip the
// recommendation toward the fantasy cluster.
func TestReweightFindsExplanation(t *testing.T) {
	f := newFixture(t, Options{ReweightTo: 5})
	// Depress u→f1 before the recommender snapshot: rebuild fixture
	// graph first, then recreate recommender and explainer.
	if err := f.g.RemoveEdge(f.ids["u"], f.ids["f1"], f.rated); err != nil {
		t.Fatal(err)
	}
	if err := f.g.AddEdge(f.ids["u"], f.ids["f1"], f.rated, 0.5); err != nil {
		t.Fatal(err)
	}
	item, _ := f.g.Types().LookupNodeType("item")
	cfg := rec.DefaultConfig(item)
	cfg.Beta = 1
	r, err := rec.New(f.g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ex := New(f.g, r, Options{
		AllowedEdgeTypes: hin.NewEdgeTypeSet(f.rated),
		AddEdgeType:      f.rated,
		ReweightTo:       5,
	})
	q := Query{User: f.ids["u"], WNI: f.ids["f2"]}
	for _, method := range []Method{Incremental, Powerset, Exhaustive} {
		expl, err := ex.ExplainWith(q, Reweight, method)
		if errors.Is(err, ErrNoExplanation) {
			t.Fatalf("%v: no reweight explanation found", method)
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(expl.Reweights) == 0 {
			t.Fatal("explanation carries no reweights")
		}
		for _, e := range expl.Reweights {
			if e.Weight != 5 {
				t.Fatalf("reweight target weight = %g, want 5", e.Weight)
			}
			old, ok := f.g.EdgeWeight(e.From, e.To, e.Type)
			if !ok {
				t.Fatalf("reweighted edge %v does not exist", e)
			}
			if old >= 5 {
				t.Fatalf("edge %v already at or above the target weight", e)
			}
		}
		ok, err := ex.Verify(expl)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("%v: reweight explanation does not verify", method)
		}
		text := expl.Describe(f.g)
		if !strings.Contains(text, "Had you rated") || !strings.Contains(text, "weight 5") {
			t.Fatalf("describe = %q", text)
		}
	}
}

func TestReweightNoCandidatesAtTarget(t *testing.T) {
	// All fixture edges already sit at weight 1 = ReweightTo: the
	// search space must be empty and the explainer must report a clean
	// miss.
	f := newFixture(t, Options{ReweightTo: 1})
	s, err := f.ex.newSession(context.Background(), f.query(), nil, Reweight, Powerset)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.cands) != 0 {
		t.Fatalf("|H| = %d, want 0 (all weights at target)", len(s.cands))
	}
	if _, err := f.ex.ExplainWith(f.query(), Reweight, Powerset); !errors.Is(err, ErrNoExplanation) {
		t.Fatalf("err = %v, want ErrNoExplanation", err)
	}
}

func TestReweightBruteForceRejected(t *testing.T) {
	f := newFixture(t, Options{})
	if _, err := f.ex.ExplainWith(f.query(), Reweight, BruteForce); !errors.Is(err, ErrBruteForceAddMode) {
		t.Fatalf("err = %v, want ErrBruteForceAddMode", err)
	}
}

func TestOverlayReweightSemantics(t *testing.T) {
	// The check path expresses a reweight as remove+add of the same
	// typed edge; the overlay must expose exactly one edge with the new
	// weight.
	f := newFixture(t, Options{})
	u, p1 := f.ids["u"], f.ids["p1"]
	e := hin.Edge{From: u, To: p1, Type: f.rated, Weight: 4}
	o, err := hin.NewOverlay(f.g, []hin.Edge{e}, []hin.Edge{e})
	if err != nil {
		t.Fatal(err)
	}
	row, sum := o.MixedRow(nil, u, 1)
	count, reaches := 0, false
	var got float64
	for _, h := range row {
		if h.Node == p1 && h.Type == f.rated {
			count++
			got = h.Weight
		}
		reaches = reaches || h.Node == p1
	}
	if count != 1 || got != 4 {
		t.Fatalf("overlay shows %d edges with weight %g, want 1 edge at 4", count, got)
	}
	if !reaches {
		t.Fatal("reweighted edge missing from the row")
	}
	// Out weight sum adjusted: base 3 (three unit edges) − 1 + 4 = 6.
	if sum != 6 {
		t.Fatalf("OutWeightSum = %g, want 6", sum)
	}
}

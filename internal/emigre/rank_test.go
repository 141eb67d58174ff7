package emigre

import (
	"errors"
	"testing"

	"github.com/why-not-xai/emigre/internal/hin"
)

func TestTargetRankAlreadySatisfied(t *testing.T) {
	// f2 sits at rank 2 of u's list; with TargetRank 3 the question is
	// void.
	f := newFixture(t, Options{TargetRank: 3})
	_, err := f.ex.ExplainWith(f.query(), Remove, Powerset)
	if !errors.Is(err, ErrAlreadyTop) {
		t.Fatalf("err = %v, want ErrAlreadyTop", err)
	}
}

// TestTargetRankNegativeIsAnError: a negative TargetRank reaches the
// cold rank check as a list size; it must come back as an error, not a
// slice-bounds panic.
func TestTargetRankNegativeIsAnError(t *testing.T) {
	f := newFixture(t, Options{TargetRank: -1})
	ok, err := f.ex.Verify(&Explanation{Query: f.query(), Mode: Remove})
	if err == nil {
		t.Fatalf("Verify with TargetRank -1 = %v, want an error", ok)
	}
}

func TestTargetRankRelaxedSuccess(t *testing.T) {
	// f3's single-item top-1 question is unanswerable in Remove mode
	// (f2 intercepts the top spot); asking only for the top-2 makes it
	// answerable: f2 first, f3 second.
	f1 := newFixture(t, Options{})
	q := Query{User: f1.ids["u"], WNI: f1.ids["f3"]}
	if _, err := f1.ex.ExplainWith(q, Remove, Exhaustive); err == nil {
		t.Skip("fixture assumption broken: top-1 question answerable")
	}
	f2 := newFixture(t, Options{TargetRank: 2})
	expl, err := f2.ex.ExplainWith(q, Remove, Exhaustive)
	if err != nil {
		t.Fatalf("top-2 question should be answerable: %v", err)
	}
	// Verify the relaxed criterion by replay: f3 within the new top-2.
	o, err := overlayFor(f2, expl)
	if err != nil {
		t.Fatal(err)
	}
	top, err := f2.r.WithView(o).TopN(q.User, 2)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, sc := range top {
		if sc.Node == q.WNI {
			found = true
		}
	}
	if !found {
		t.Fatalf("WNI not in replayed top-2: %v", top)
	}
	// NewTop reports the actual top-1 (f2 here), not the WNI.
	if expl.NewTop != f2.ids["f2"] {
		t.Fatalf("NewTop = %v, want the actual top-1 f2", expl.NewTop)
	}
}

// overlayFor materializes an explanation's counterfactual as an
// overlay of the fixture graph.
func overlayFor(f *fixture, expl *Explanation) (*hin.Overlay, error) {
	removals := append([]hin.Edge(nil), expl.Removals...)
	additions := append([]hin.Edge(nil), expl.Additions...)
	removals = append(removals, expl.Reweights...)
	additions = append(additions, expl.Reweights...)
	return hin.NewOverlay(f.g, removals, additions)
}

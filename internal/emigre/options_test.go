package emigre

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"github.com/why-not-xai/emigre/internal/hin"
)

func TestOptionsAccessorAndDefaults(t *testing.T) {
	f := newFixture(t, Options{})
	opts := f.ex.opts
	if opts.TopKTargets != DefaultTopKTargets {
		t.Fatalf("TopKTargets = %d, want default %d", opts.TopKTargets, DefaultTopKTargets)
	}
	if opts.MaxSearchSpace != DefaultMaxSearchSpace ||
		opts.MaxCombinationSize != DefaultMaxCombinationSize ||
		opts.MaxTests != DefaultMaxTests ||
		opts.AddEdgeWeight != DefaultAddEdgeWeight ||
		opts.ReweightTo != DefaultReweightTo ||
		opts.TargetRank != 1 {
		t.Fatalf("defaults not applied: %+v", opts)
	}
}

// TestExhaustiveCandidateCap gives the explainer a MaxSearchSpace below
// its Add-mode search space: the exhaustive candidate list must be the
// strongest |contribution| entries — the first limit of a full absCmp
// sort — re-sorted into search-space order.
func TestExhaustiveCandidateCap(t *testing.T) {
	f := newFixture(t, Options{MaxSearchSpace: 1})
	g, r, q, te := liteScenario(t)
	for _, tc := range []struct {
		name string
		ex   *Explainer
		q    Query
	}{
		{"fixture", f.ex, f.query()},
		{"lite", New(g, r, Options{AllowedEdgeTypes: te, MaxSearchSpace: 8}), q},
	} {
		s, err := tc.ex.newSession(context.Background(), tc.q, nil, Add, Powerset)
		if err != nil {
			t.Fatal(err)
		}
		limit := tc.ex.opts.MaxSearchSpace
		if len(s.cands) <= limit {
			t.Fatalf("%s: add search space %d does not exceed the cap %d", tc.name, len(s.cands), limit)
		}
		want := slices.Clone(s.cands)
		slices.SortFunc(want, absCmp)
		want = want[:limit]
		sortCandidates(want)
		if got := s.exhaustiveCandidates(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: capped candidates %+v, want %+v", tc.name, got, want)
		}
	}
}

func TestDescribeUnlabeledNodes(t *testing.T) {
	g := hin.NewGraph()
	item := g.Types().NodeType("item")
	user := g.Types().NodeType("user")
	rated := g.Types().EdgeType("rated")
	u := g.AddNode(user, "")
	a := g.AddNode(item, "")
	b := g.AddNode(item, "")
	expl := &Explanation{
		Query:    Query{User: u, WNI: b},
		Mode:     Remove,
		Removals: []hin.Edge{{From: u, To: a, Type: rated, Weight: 1}},
	}
	text := expl.Describe(g)
	if text == "" {
		t.Fatal("empty description")
	}
	// Unlabeled nodes render as "node N".
	if want := "node 1"; !contains(text, want) {
		t.Fatalf("description %q missing %q", text, want)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

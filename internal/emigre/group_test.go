package emigre

import (
	"context"
	"errors"
	"testing"

	"github.com/why-not-xai/emigre/internal/hin"
)

func TestExplainGroupPromotesAMember(t *testing.T) {
	for _, mode := range []Mode{Remove, Add} {
		t.Run(mode.String(), func(t *testing.T) {
			f := newFixture(t, Options{})
			group := GroupQuery{User: f.ids["u"], Items: []hin.NodeID{f.ids["f2"], f.ids["f3"]}}
			expl, err := f.ex.ExplainGroup(group, mode, Powerset)
			if err != nil {
				t.Fatal(err)
			}
			if len(expl.Group) != 2 {
				t.Fatalf("Group = %v, want both members", expl.Group)
			}
			if expl.NewTop != f.ids["f2"] && expl.NewTop != f.ids["f3"] {
				t.Fatalf("NewTop = %v, not a group member", expl.NewTop)
			}
			// Replay: the new top-1 must be in the group.
			var o *hin.Graph
			if mode == Remove {
				var err error
				o, err = edited(f.g, expl.Edges, nil)
				if err != nil {
					t.Fatal(err)
				}
			} else {
				var err error
				o, err = edited(f.g, nil, expl.Edges)
				if err != nil {
					t.Fatal(err)
				}
			}
			top, err := rebuilt(f.r, o).Recommend(f.ids["u"])
			if err != nil {
				t.Fatal(err)
			}
			if top != f.ids["f2"] && top != f.ids["f3"] {
				t.Fatalf("replayed top %v not in group", top)
			}
		})
	}
}

func TestExplainGroupEasierThanWeakestMember(t *testing.T) {
	// The f3 single question is not answerable in Remove mode (f2
	// intercepts); as a group question {f2, f3} it is — because f2
	// counts as success.
	f := newFixture(t, Options{})
	if _, err := f.ex.ExplainWith(Query{User: f.ids["u"], WNI: f.ids["f3"]}, Remove, Exhaustive); err == nil {
		t.Skip("fixture assumption broken")
	}
	expl, err := f.ex.ExplainGroup(
		GroupQuery{User: f.ids["u"], Items: []hin.NodeID{f.ids["f3"], f.ids["f2"]}},
		Remove, Exhaustive)
	if err != nil {
		t.Fatalf("group query should succeed via f2: %v", err)
	}
	if expl.NewTop != f.ids["f2"] {
		t.Fatalf("NewTop = %v, want f2", expl.NewTop)
	}
}

func TestExplainGroupValidation(t *testing.T) {
	f := newFixture(t, Options{})
	u := f.ids["u"]
	cases := []struct {
		name    string
		items   []hin.NodeID
		wantErr error
	}{
		{"empty group", nil, ErrEmptyGroup},
		{"contains current rec", []hin.NodeID{f.ids["p3"]}, ErrAlreadyTop},
		{"all interacted", []hin.NodeID{f.ids["p1"], f.ids["p2"]}, ErrEmptyGroup},
		{"non items", []hin.NodeID{f.ids["v"], f.ids["cF"]}, ErrEmptyGroup},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := f.ex.ExplainGroup(GroupQuery{User: u, Items: tc.items}, Remove, Powerset)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
		})
	}
}

func TestExplainGroupDeduplicates(t *testing.T) {
	f := newFixture(t, Options{})
	expl, err := f.ex.ExplainGroup(GroupQuery{
		User:  f.ids["u"],
		Items: []hin.NodeID{f.ids["f2"], f.ids["f2"], f.ids["f2"]},
	}, Add, Powerset)
	if err != nil {
		t.Fatal(err)
	}
	if len(expl.Group) != 1 {
		t.Fatalf("Group = %v, want deduplicated singleton", expl.Group)
	}
}

func TestExplainCategory(t *testing.T) {
	f := newFixture(t, Options{})
	// Category cF: members f1 (interacted, filtered), f2, f3.
	expl, err := f.ex.ExplainCategory(f.ids["u"], f.ids["cF"], 0, Add, Powerset)
	if err != nil {
		t.Fatal(err)
	}
	if len(expl.Group) != 2 {
		t.Fatalf("category group = %v, want {f2, f3}", expl.Group)
	}
	if expl.NewTop != f.ids["f2"] && expl.NewTop != f.ids["f3"] {
		t.Fatalf("NewTop = %v, not in category", expl.NewTop)
	}
}

func TestExplainCategoryMaxItems(t *testing.T) {
	f := newFixture(t, Options{})
	expl, err := f.ex.ExplainCategory(f.ids["u"], f.ids["cF"], 1, Add, Powerset)
	if err != nil {
		t.Fatal(err)
	}
	if len(expl.Group) != 1 {
		t.Fatalf("group = %v, want capped to 1", expl.Group)
	}
	// The cap keeps the best-scoring member (f2).
	if expl.Group[0] != f.ids["f2"] {
		t.Fatalf("cap kept %v, want the best-scoring member f2", expl.Group[0])
	}
}

func TestExplainCategoryErrors(t *testing.T) {
	f := newFixture(t, Options{})
	if _, err := f.ex.ExplainCategory(f.ids["u"], 999, 0, Add, Powerset); !errors.Is(err, ErrNotWhyNotItem) {
		t.Fatalf("err = %v, want ErrNotWhyNotItem", err)
	}
	// A user node has item neighbors (the things they rated), all of
	// which the target user may have interacted with — use a node with
	// no item neighbors instead: another category-free user is hard to
	// build here, so check the "no item neighbors" branch with a fresh
	// isolated node.
	iso := f.g.AddNode(f.g.Types().NodeType("category"), "empty-cat")
	if _, err := f.ex.ExplainCategory(f.ids["u"], iso, 0, Add, Powerset); !errors.Is(err, ErrEmptyGroup) {
		t.Fatalf("err = %v, want ErrEmptyGroup", err)
	}
}

func TestGroupCheckAcceptsAnyMemberMidSearch(t *testing.T) {
	// Directly exercise the widened CHECK: a session seeded on f3 with
	// accept={f2,f3} must report success for an edit that promotes f2.
	f := newFixture(t, Options{})
	accept := map[hin.NodeID]bool{f.ids["f2"]: true, f.ids["f3"]: true}
	s, err := f.ex.newSession(context.Background(), Query{User: f.ids["u"], WNI: f.ids["f3"]}, accept, Remove, Powerset)
	if err != nil {
		t.Fatal(err)
	}
	cands := []candidate{
		{edge: hin.Edge{From: f.ids["u"], To: f.ids["p1"], Type: f.rated, Weight: 1}, op: Remove},
		{edge: hin.Edge{From: f.ids["u"], To: f.ids["p2"], Type: f.rated, Weight: 1}, op: Remove},
	}
	ok, top, err := s.check(cands)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("group check rejected a member promotion (top = %v)", top)
	}
	if top != f.ids["f2"] {
		t.Fatalf("top = %v, want f2", top)
	}
}

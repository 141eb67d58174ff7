package emigre

import (
	"errors"
	"testing"

	"github.com/why-not-xai/emigre/internal/hin"
	"github.com/why-not-xai/emigre/internal/rec"
)

func TestDiagnoseAnswerable(t *testing.T) {
	f := newFixture(t, Options{})
	d, err := f.ex.Diagnose(f.query(), Remove)
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != FailureNone {
		t.Fatalf("Kind = %v, want FailureNone", d.Kind)
	}
}

// TestUncachedDiagnoseRunsOneExplain pins what an answerable diagnosis
// costs without a vector cache: the reverse and forward pushes of the
// one Exhaustive explain that answers it, and no second opening of the
// same session to validate the question first.
func TestUncachedDiagnoseRunsOneExplain(t *testing.T) {
	runs := func() int64 {
		var n int64
		for _, engine := range []string{"reverse_push", "forward_push"} {
			n += pprRuns(engine).Value()
		}
		return n
	}
	f := newFixture(t, Options{DisableCache: true})
	before := runs()
	if _, err := f.ex.ExplainWith(f.query(), Remove, Exhaustive); err != nil {
		t.Fatal(err)
	}
	explain := runs() - before
	before = runs()
	d, err := f.ex.Diagnose(f.query(), Remove)
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != FailureNone {
		t.Fatalf("Kind = %v, want FailureNone", d.Kind)
	}
	if got := runs() - before; got != explain {
		t.Fatalf("an uncached diagnosis ran %d pushes, its Exhaustive explain %d", got, explain)
	}
}

func TestDiagnoseValidationErrorsPassThrough(t *testing.T) {
	f := newFixture(t, Options{})
	if _, err := f.ex.Diagnose(Query{User: f.ids["u"], WNI: f.ids["p3"]}, Remove); !errors.Is(err, ErrAlreadyTop) {
		t.Fatalf("err = %v, want ErrAlreadyTop", err)
	}
	if _, err := f.ex.Diagnose(Query{User: f.ids["u"], WNI: f.ids["cF"]}, Remove); !errors.Is(err, ErrNotWhyNotItem) {
		t.Fatalf("err = %v, want ErrNotWhyNotItem", err)
	}
}

// coldStartGraph: one user with a single action, a popular item powered
// by other users — the Figure-7 setting.
func coldStartGraph(t *testing.T) (*Explainer, Query, map[string]hin.NodeID) {
	t.Helper()
	g := hin.NewGraph()
	user := g.Types().NodeType("user")
	item := g.Types().NodeType("item")
	rated := g.Types().EdgeType("rated")
	ids := map[string]hin.NodeID{
		"u":       g.AddNode(user, "u"),
		"v":       g.AddNode(user, "v"),
		"w":       g.AddNode(user, "w"),
		"seed":    g.AddNode(item, "seed"),
		"popular": g.AddNode(item, "popular"),
		"niche":   g.AddNode(item, "niche"),
	}
	pairs := [][2]string{
		{"u", "seed"}, {"v", "seed"}, {"v", "popular"}, {"w", "seed"},
		{"w", "popular"}, {"v", "niche"},
	}
	for _, p := range pairs {
		if err := g.AddBidirectional(ids[p[0]], ids[p[1]], rated, 1); err != nil {
			t.Fatal(err)
		}
	}
	cfg := rec.DefaultConfig(item)
	cfg.Beta = 1
	r, err := rec.New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Restrict additions to a non-recommendable type so the Add and
	// Combined probes cannot mask the inactivity diagnosis.
	ex := New(g, r, Options{
		AllowedEdgeTypes: hin.NewEdgeTypeSet(rated),
		AddEdgeType:      rated,
		AddTargetTypes:   []hin.NodeTypeID{user},
	})
	return ex, Query{User: ids["u"], WNI: ids["niche"]}, ids
}

func TestDiagnoseColdStart(t *testing.T) {
	ex, q, _ := coldStartGraph(t)
	if _, err := ex.ExplainWith(q, Remove, Exhaustive); err == nil {
		t.Skip("fixture assumption broken: remove mode answers the question")
	}
	d, err := ex.Diagnose(q, Remove)
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != FailureColdStart {
		t.Fatalf("Kind = %v, want FailureColdStart (%s)", d.Kind, d.Detail)
	}
	if d.Actions != 1 {
		t.Fatalf("Actions = %d, want 1", d.Actions)
	}
}

func TestDiagnoseOutOfScope(t *testing.T) {
	// The fixture's f3 question: Remove mode fails (f2 intercepts), Add
	// mode succeeds — the §6.4 out-of-scope case.
	f := newFixture(t, Options{})
	q := Query{User: f.ids["u"], WNI: f.ids["f3"]}
	if _, err := f.ex.ExplainWith(q, Remove, Exhaustive); err == nil {
		t.Skip("fixture assumption broken: remove answers the f3 question")
	}
	d, err := f.ex.Diagnose(q, Remove)
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != FailureOutOfScope {
		t.Fatalf("Kind = %v (%s), want FailureOutOfScope", d.Kind, d.Detail)
	}
	if d.WorkingMode != Add && d.WorkingMode != Combined {
		t.Fatalf("WorkingMode = %v, want Add or Combined", d.WorkingMode)
	}
	if d.Actions != 3 {
		t.Fatalf("Actions = %d, want 3", d.Actions)
	}
}

func TestDiagnosePopularItem(t *testing.T) {
	// Restrict the Add search space to a type with no valid targets so
	// every mode fails, and raise the user's action count above the
	// cold-start threshold.
	g := hin.NewGraph()
	user := g.Types().NodeType("user")
	item := g.Types().NodeType("item")
	rated := g.Types().EdgeType("rated")
	u := g.AddNode(user, "u")
	v := g.AddNode(user, "v")
	var seeds []hin.NodeID
	for i := 0; i < 8; i++ {
		it := g.AddNode(item, "")
		seeds = append(seeds, it)
		if err := g.AddBidirectional(u, it, rated, 1); err != nil {
			t.Fatal(err)
		}
		if err := g.AddBidirectional(v, it, rated, 1); err != nil {
			t.Fatal(err)
		}
	}
	popular := g.AddNode(item, "popular")
	niche := g.AddNode(item, "niche")
	// Several users prop up the popular item.
	for i := 0; i < 5; i++ {
		w := g.AddNode(user, "")
		if err := g.AddBidirectional(w, popular, rated, 1); err != nil {
			t.Fatal(err)
		}
		if err := g.AddBidirectional(w, seeds[0], rated, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddBidirectional(v, popular, rated, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddBidirectional(v, niche, rated, 0.1); err != nil {
		t.Fatal(err)
	}
	cfg := rec.DefaultConfig(item)
	cfg.Beta = 1
	r, err := rec.New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ex := New(g, r, Options{
		AllowedEdgeTypes: hin.NewEdgeTypeSet(rated),
		AddEdgeType:      rated,
		// Additions may only target users — i.e., nothing recommendable,
		// so the Add and Combined probes cannot help.
		AddTargetTypes: []hin.NodeTypeID{user},
	})
	q := Query{User: u, WNI: niche}
	if _, err := ex.ExplainWith(q, Remove, Exhaustive); err == nil {
		t.Skip("fixture assumption broken: remove answers the question")
	}
	d, err := ex.Diagnose(q, Remove)
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != FailurePopularItem {
		t.Fatalf("Kind = %v (%s), want FailurePopularItem", d.Kind, d.Detail)
	}
	if d.PopularInDegree == 0 {
		t.Fatal("popular in-degree not reported")
	}
}

func TestFailureKindStrings(t *testing.T) {
	want := map[FailureKind]string{
		FailureNone:        "none",
		FailureColdStart:   "cold-start",
		FailureOutOfScope:  "out-of-scope",
		FailurePopularItem: "popular-item",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
	if FailureKind(9).String() == "" {
		t.Fatal("unknown kind should render")
	}
}

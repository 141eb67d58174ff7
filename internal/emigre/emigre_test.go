package emigre

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/why-not-xai/emigre/internal/hin"
	"github.com/why-not-xai/emigre/internal/obs"
	"github.com/why-not-xai/emigre/internal/ppr"
	"github.com/why-not-xai/emigre/internal/rec"
)

// pprRuns is ppr's counter of completed runs of one engine, requested
// with ppr's help string: the registry panics on any other.
func pprRuns(engine string) *obs.Counter {
	return obs.Default().Counter("emigre_ppr_runs_total",
		"Completed PPR engine runs by engine.", obs.L("engine", engine))
}

// fixture is a two-cluster book-shop graph:
//
//	programming cluster: items p1,p2,p3 + category cP, fan v
//	fantasy cluster:     items f1,f2,f3 + category cF, fans w and x
//
// The target user u rated p1, p2 and f1, so the recommendation is p3;
// the natural Why-Not item is f2, which is explainable in both modes.
type fixture struct {
	g     *hin.Graph
	r     *rec.Recommender
	ex    *Explainer
	rated hin.EdgeTypeID
	ids   map[string]hin.NodeID
}

func newFixture(t testing.TB, opts Options) *fixture {
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
	if opts.AllowedEdgeTypes == hin.NewEdgeTypeSet() {
		opts.AllowedEdgeTypes = hin.NewEdgeTypeSet(rated)
	}
	opts.AddEdgeType = rated
	return &fixture{g: g, r: r, ex: New(g, r, opts), rated: rated, ids: ids}
}

func (f *fixture) query() Query {
	return Query{User: f.ids["u"], WNI: f.ids["f2"]}
}

func allMethods(mode Mode) []Method {
	ms := []Method{Incremental, Powerset, Exhaustive, ExhaustiveDirect}
	if mode == Remove {
		ms = append(ms, BruteForce)
	}
	return ms
}

func TestCurrentRecommendationIsP3(t *testing.T) {
	f := newFixture(t, Options{})
	top, err := f.r.Recommend(f.ids["u"])
	if err != nil {
		t.Fatal(err)
	}
	if top != f.ids["p3"] {
		t.Fatalf("rec = %v, want p3 (%v)", top, f.ids["p3"])
	}
}

func TestAllMethodsFindVerifiedExplanations(t *testing.T) {
	for _, mode := range []Mode{Remove, Add} {
		for _, method := range allMethods(mode) {
			t.Run(mode.String()+"/"+method.String(), func(t *testing.T) {
				f := newFixture(t, Options{})
				expl, err := f.ex.ExplainWith(f.query(), mode, method)
				if err != nil {
					t.Fatalf("ExplainWith: %v", err)
				}
				if expl.Size() == 0 {
					t.Fatal("empty explanation")
				}
				if method == ExhaustiveDirect {
					if expl.Verified {
						t.Fatal("direct method must not claim verification")
					}
				} else {
					if !expl.Verified {
						t.Fatal("explanation not verified")
					}
					if expl.NewTop != f.query().WNI {
						t.Fatalf("NewTop = %v, want WNI", expl.NewTop)
					}
				}
				if expl.OldTop != f.ids["p3"] {
					t.Fatalf("OldTop = %v, want p3", expl.OldTop)
				}
				// Independent re-verification through a fresh overlay.
				ok, err := f.ex.Verify(expl)
				if err != nil {
					t.Fatalf("Verify: %v", err)
				}
				if !ok {
					t.Fatalf("explanation %v does not survive independent verification", expl.Edges)
				}
				// Explanations are rooted at the user.
				for _, e := range expl.Edges {
					if e.From != f.query().User {
						t.Fatalf("edge %v not rooted at user", e)
					}
				}
				if expl.Stats.Duration <= 0 {
					t.Fatal("missing duration")
				}
			})
		}
	}
}

func TestRemoveModeUsesExistingEdges(t *testing.T) {
	f := newFixture(t, Options{})
	expl, err := f.ex.ExplainWith(f.query(), Remove, Powerset)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range expl.Edges {
		if _, ok := f.g.EdgeWeight(e.From, e.To, e.Type); !ok {
			t.Fatalf("remove-mode edge %v does not exist in the graph", e)
		}
	}
}

func TestAddModeUsesNonExistingEdges(t *testing.T) {
	f := newFixture(t, Options{})
	expl, err := f.ex.ExplainWith(f.query(), Add, Powerset)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range expl.Edges {
		if hasEdge(f.g, e.From, e.To) {
			t.Fatalf("add-mode edge %v already exists", e)
		}
		if e.To == f.query().WNI {
			t.Fatal("add-mode explanation must not connect the user to the WNI itself")
		}
		if !f.r.IsItem(e.To) {
			t.Fatalf("add-mode edge targets non-item %v", e.To)
		}
	}
}

func TestQueryValidation(t *testing.T) {
	f := newFixture(t, Options{})
	u := f.ids["u"]
	cases := []struct {
		name    string
		q       Query
		wantErr error
	}{
		{"wni already top", Query{User: u, WNI: f.ids["p3"]}, ErrAlreadyTop},
		{"wni interacted", Query{User: u, WNI: f.ids["p1"]}, ErrNotWhyNotItem},
		{"wni is a user", Query{User: u, WNI: f.ids["v"]}, ErrNotWhyNotItem},
		{"wni is a category", Query{User: u, WNI: f.ids["cF"]}, ErrNotWhyNotItem},
		{"wni is the user", Query{User: u, WNI: u}, ErrNotWhyNotItem},
		{"wni out of range", Query{User: u, WNI: 999}, ErrNotWhyNotItem},
		{"user out of range", Query{User: -2, WNI: f.ids["f2"]}, ErrNotWhyNotItem},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := f.ex.ExplainWith(tc.q, Remove, Incremental); !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
		})
	}
}

func TestBruteForceRejectedInAddMode(t *testing.T) {
	f := newFixture(t, Options{})
	if _, err := f.ex.ExplainWith(f.query(), Add, BruteForce); !errors.Is(err, ErrBruteForceAddMode) {
		t.Fatalf("err = %v, want ErrBruteForceAddMode", err)
	}
}

func TestUnknownMethodRejected(t *testing.T) {
	f := newFixture(t, Options{})
	if _, err := f.ex.ExplainWith(f.query(), Remove, Method(99)); err == nil {
		t.Fatal("expected error for unknown method")
	}
}

func TestTauMatchesPPRGap(t *testing.T) {
	// With T_e = all edge types, tau must equal
	// (PPR(u,rec) − PPR(u,WNI)) / (1−α) by the linearity of Eq. 1 over
	// the user's out-edges (DESIGN.md §3.2).
	f := newFixture(t, Options{AllowedEdgeTypes: hin.NewEdgeTypeSet()})
	// Force the all-types set (newFixture only overrides the zero set).
	f.ex.opts.AllowedEdgeTypes = hin.EdgeTypeSet{}
	s, err := f.ex.newSession(context.Background(), f.query(), nil, Remove, Powerset)
	if err != nil {
		t.Fatal(err)
	}
	pw := ppr.NewPower(f.r.Config().PPR)
	row, err := pw.FromSource(f.r.ScoringView(), f.query().User)
	if err != nil {
		t.Fatal(err)
	}
	alpha := f.r.Config().PPR.Alpha
	want := (row[s.rec] - row[f.query().WNI]) / (1 - alpha)
	if diff := math.Abs(s.tau - want); diff > 1e-6 {
		t.Fatalf("tau = %g, want %g (diff %g)", s.tau, want, diff)
	}
	if s.tau <= 0 {
		t.Fatal("tau must start positive: rec dominates WNI")
	}
}

func TestSearchSpaceRemove(t *testing.T) {
	f := newFixture(t, Options{})
	s, err := f.ex.newSession(context.Background(), f.query(), nil, Remove, Powerset)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.cands) != 3 { // u's rated edges: p1, p2, f1
		t.Fatalf("|H| = %d, want 3", len(s.cands))
	}
	got := make(map[hin.NodeID]float64)
	for _, c := range s.cands {
		got[c.edge.To] = c.contribution
		if c.edge.From != f.query().User {
			t.Fatalf("candidate edge %v not rooted at user", c.edge)
		}
	}
	// p1 and p2 feed the programming cluster (rec side): positive.
	if got[f.ids["p1"]] <= 0 || got[f.ids["p2"]] <= 0 {
		t.Fatalf("programming edges should favor rec: %v", got)
	}
	// f1 feeds the fantasy cluster (WNI side): negative.
	if got[f.ids["f1"]] >= 0 {
		t.Fatalf("fantasy edge should favor WNI: %v", got)
	}
	// Descending order.
	for i := 1; i < len(s.cands); i++ {
		if s.cands[i-1].contribution < s.cands[i].contribution {
			t.Fatal("candidates not sorted by descending contribution")
		}
	}
}

func TestSearchSpaceAdd(t *testing.T) {
	f := newFixture(t, Options{})
	s, err := f.ex.newSession(context.Background(), f.query(), nil, Add, Powerset)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range s.cands {
		if c.edge.To == f.query().WNI {
			t.Fatal("WNI must not be an add candidate")
		}
		if c.edge.To == f.query().User {
			t.Fatal("user must not be an add candidate")
		}
		if hasEdge(f.g, f.query().User, c.edge.To) {
			t.Fatalf("existing neighbor %v offered as add candidate", c.edge.To)
		}
		if !f.r.IsItem(c.edge.To) {
			t.Fatalf("non-item add candidate %v", c.edge.To)
		}
		if c.edge.Weight != DefaultAddEdgeWeight {
			t.Fatalf("add edge weight = %g, want default %g", c.edge.Weight, DefaultAddEdgeWeight)
		}
	}
	// f3 (same cluster as WNI) must rank above p3 (rec's cluster).
	if len(s.cands) < 2 || s.cands[0].edge.To != f.ids["f3"] {
		t.Fatalf("top add candidate should be f3, got %+v", s.cands)
	}
}

func TestPowersetNotLargerThanIncremental(t *testing.T) {
	f := newFixture(t, Options{})
	inc, err := f.ex.ExplainWith(f.query(), Remove, Incremental)
	if err != nil {
		t.Fatal(err)
	}
	pow, err := f.ex.ExplainWith(f.query(), Remove, Powerset)
	if err != nil {
		t.Fatal(err)
	}
	if pow.Size() > inc.Size() {
		t.Fatalf("powerset size %d > incremental size %d", pow.Size(), inc.Size())
	}
	brute, err := f.ex.ExplainWith(f.query(), Remove, BruteForce)
	if err != nil {
		t.Fatal(err)
	}
	if brute.Size() > pow.Size() {
		t.Fatalf("brute force size %d > powerset size %d (brute is minimal)", brute.Size(), pow.Size())
	}
}

func TestBruteForceMinimality(t *testing.T) {
	f := newFixture(t, Options{})
	expl, err := f.ex.ExplainWith(f.query(), Remove, BruteForce)
	if err != nil {
		t.Fatal(err)
	}
	// Every strictly smaller subset of the user's actions must fail.
	if expl.Size() != 1 {
		// Size 1 is trivially minimal; for larger sizes check subsets.
		s, err := f.ex.newSession(context.Background(), f.query(), nil, Remove, Powerset)
		if err != nil {
			t.Fatal(err)
		}
		combinations(len(expl.Edges), expl.Size()-1, func(idx []int) bool {
			sub := make([]candidate, len(idx))
			for i, j := range idx {
				sub[i] = candidate{edge: expl.Edges[j], op: Remove}
			}
			ok, _, err := s.check(sub)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				t.Fatalf("sub-explanation %v works: brute force not minimal", sub)
			}
			return true
		})
	}
}

func TestDescribe(t *testing.T) {
	f := newFixture(t, Options{})
	rm, err := f.ex.ExplainWith(f.query(), Remove, Powerset)
	if err != nil {
		t.Fatal(err)
	}
	text := rm.Describe(f.g)
	if !strings.Contains(text, "Had you not interacted with") || !strings.Contains(text, "f2") {
		t.Fatalf("unexpected remove description: %q", text)
	}
	ad, err := f.ex.ExplainWith(f.query(), Add, Powerset)
	if err != nil {
		t.Fatal(err)
	}
	text = ad.Describe(f.g)
	if !strings.Contains(text, "Had you interacted with") || !strings.Contains(text, "f2") {
		t.Fatalf("unexpected add description: %q", text)
	}
}

func TestImpossibleScenarioReturnsNoExplanation(t *testing.T) {
	// "Popular item" failure case (§6.4, Figure 7): a user with a single
	// action cannot dethrone a popular item by removals — removing the
	// only edge isolates the user entirely.
	g := hin.NewGraph()
	user := g.Types().NodeType("user")
	item := g.Types().NodeType("item")
	rated := g.Types().EdgeType("rated")
	u := g.AddNode(user, "u")
	v := g.AddNode(user, "v")
	popular := g.AddNode(item, "popular")
	niche := g.AddNode(item, "niche")
	seed := g.AddNode(item, "seed")
	mustAdd := func(a, b hin.NodeID) {
		if err := g.AddBidirectional(a, b, rated, 1); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(u, seed)
	mustAdd(v, seed)
	mustAdd(v, popular)
	mustAdd(v, niche)
	cfg := rec.DefaultConfig(item)
	cfg.Beta = 1
	r, err := rec.New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ex := New(g, r, Options{AllowedEdgeTypes: hin.NewEdgeTypeSet(rated), AddEdgeType: rated})
	top, err := r.Recommend(u)
	if err != nil {
		t.Fatal(err)
	}
	if top == niche {
		t.Skip("fixture assumption broken: niche already top")
	}
	for _, method := range []Method{Incremental, Powerset, Exhaustive, BruteForce} {
		if _, err := ex.ExplainWith(Query{User: u, WNI: niche}, Remove, method); !errors.Is(err, ErrNoExplanation) {
			t.Fatalf("%v: err = %v, want ErrNoExplanation", method, err)
		}
	}
}

func TestBudgetExhaustion(t *testing.T) {
	f := newFixture(t, Options{MaxTests: 1})
	// Query f3 in remove mode: the first check promotes f2 (the stronger
	// fantasy item), so more than one check is needed and the budget of
	// one must trip.
	q := Query{User: f.ids["u"], WNI: f.ids["f3"]}
	_, err := f.ex.ExplainWith(q, Remove, BruteForce)
	if err == nil {
		t.Skip("fixture found an explanation within one test")
	}
	if !errors.Is(err, ErrNoExplanation) {
		t.Fatalf("err = %v, want ErrNoExplanation", err)
	}
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted in the chain", err)
	}
}

func TestStatsPopulated(t *testing.T) {
	f := newFixture(t, Options{})
	expl, err := f.ex.ExplainWith(f.query(), Remove, Powerset)
	if err != nil {
		t.Fatal(err)
	}
	st := expl.Stats
	if st.SearchSpace != 3 {
		t.Fatalf("SearchSpace = %d, want 3", st.SearchSpace)
	}
	if st.Tests == 0 || st.CombosExamined == 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
}

func TestModeMethodStrings(t *testing.T) {
	if Remove.String() != "remove" || Add.String() != "add" {
		t.Fatal("mode strings wrong")
	}
	names := map[Method]string{
		Incremental:      "incremental",
		Powerset:         "powerset",
		Exhaustive:       "exhaustive",
		ExhaustiveDirect: "exhaustive-direct",
		BruteForce:       "brute-force",
	}
	for m, want := range names {
		if m.String() != want {
			t.Fatalf("%d.String() = %q, want %q", m, m.String(), want)
		}
	}
	if !strings.Contains(Mode(9).String(), "9") || !strings.Contains(Method(9).String(), "9") {
		t.Fatal("unknown enum strings should embed the value")
	}
}

func TestCombinations(t *testing.T) {
	var got [][]int
	combinations(5, 2, func(idx []int) bool {
		got = append(got, append([]int(nil), idx...))
		return true
	})
	if len(got) != 10 {
		t.Fatalf("C(5,2) enumerated %d combos, want 10", len(got))
	}
	if got[0][0] != 0 || got[0][1] != 1 {
		t.Fatalf("first combo = %v, want [0 1]", got[0])
	}
	if got[9][0] != 3 || got[9][1] != 4 {
		t.Fatalf("last combo = %v, want [3 4]", got[9])
	}
	// Early stop.
	n := 0
	combinations(5, 2, func([]int) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("early stop visited %d, want 3", n)
	}
	// Degenerate sizes.
	combinations(3, 0, func([]int) bool { t.Fatal("c=0 must not visit"); return true })
	combinations(3, 4, func([]int) bool { t.Fatal("c>n must not visit"); return true })
}

func TestBinomial(t *testing.T) {
	cases := []struct{ n, k, want int }{
		{5, 2, 10}, {10, 0, 1}, {10, 10, 1}, {10, 3, 120}, {0, 0, 1}, {3, 5, 0}, {5, -1, 0},
	}
	for _, c := range cases {
		if got := binomial(c.n, c.k); got != c.want {
			t.Fatalf("binomial(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}

// TestRandomGraphExplanationsAlwaysVerify is the core soundness
// property: whatever a (non-direct) method returns, applying it to the
// graph makes WNI the top-1 recommendation.
func TestRandomGraphExplanationsAlwaysVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(271))
	for trial := 0; trial < 15; trial++ {
		g := hin.NewGraph()
		user := g.Types().NodeType("user")
		item := g.Types().NodeType("item")
		rated := g.Types().EdgeType("rated")
		nUsers, nItems := 4+rng.Intn(4), 8+rng.Intn(8)
		for i := 0; i < nUsers; i++ {
			g.AddNode(user, "")
		}
		for i := 0; i < nItems; i++ {
			g.AddNode(item, "")
		}
		for i := 0; i < nUsers*4; i++ {
			u := hin.NodeID(rng.Intn(nUsers))
			it := hin.NodeID(nUsers + rng.Intn(nItems))
			if hasEdge(g, u, it) {
				continue
			}
			_ = g.AddBidirectional(u, it, rated, 1+rng.Float64()*4)
		}
		cfg := rec.DefaultConfig(item)
		// Odd trials score over the β-mixed transition view, so the gate
		// reads columns pushed over it too.
		cfg.Beta = []float64{1, 0.5}[trial%2]
		r, err := rec.New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ex := New(g, r, Options{AllowedEdgeTypes: hin.NewEdgeTypeSet(rated), AddEdgeType: rated})
		u := hin.NodeID(rng.Intn(nUsers))
		top, err := r.TopN(u, 5)
		if err != nil || len(top) < 2 {
			continue
		}
		wni := top[1+rng.Intn(len(top)-1)].Node
		q := Query{User: u, WNI: wni}
		for _, mode := range []Mode{Remove, Add} {
			for _, method := range []Method{Incremental, Powerset, Exhaustive} {
				expl, err := ex.ExplainWith(q, mode, method)
				if errors.Is(err, ErrNoExplanation) {
					continue
				}
				if err != nil {
					t.Fatalf("trial %d %v/%v: %v", trial, mode, method, err)
				}
				ok, err := ex.Verify(expl)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					t.Fatalf("trial %d %v/%v: unsound explanation %v", trial, mode, method, expl.Edges)
				}
			}
		}
	}
}

// rebuilt is r's configuration and cache over g, flattened from
// scratch: over an edited graph, the full-rebuild reference for a
// counterfactual.
func rebuilt(r *rec.Recommender, g *hin.Graph) *rec.Recommender {
	full, err := rec.New(g, r.Config())
	if err != nil {
		panic(err)
	}
	return full.WithCache(r.Cache())
}

// edited is a clone of g with the removals and then the additions
// applied by RemoveEdge and AddEdge, the first failure returned: the
// graph a counterfactual overlay edits one row of, materialized.
func edited(g *hin.Graph, removals, additions []hin.Edge) (*hin.Graph, error) {
	c := g.Clone()
	for _, e := range removals {
		if err := c.RemoveEdge(e.From, e.To, e.Type); err != nil {
			return nil, err
		}
	}
	for _, e := range additions {
		if err := c.AddEdge(e.From, e.To, e.Type, e.Weight); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// hasEdge reports whether g has an edge from → to, of any type.
func hasEdge(g *hin.Graph, from, to hin.NodeID) (found bool) {
	g.OutEdges(from, func(h hin.HalfEdge) bool { found = h.Node == to; return !found })
	return found
}

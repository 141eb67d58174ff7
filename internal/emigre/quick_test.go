package emigre

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/why-not-xai/emigre/internal/hin"
	"github.com/why-not-xai/emigre/internal/rec"
)

// TestQuickSortCandidatesIsTotalOrder: sortCandidates must be a
// deterministic total order — sorting any permutation of the same
// candidate set yields the same sequence.
func TestQuickSortCandidatesIsTotalOrder(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		size := int(n%12) + 2
		cands := make([]candidate, size)
		for i := range cands {
			cands[i] = candidate{
				edge:         hin.Edge{From: 0, To: hin.NodeID(rng.Intn(6)), Type: hin.EdgeTypeID(rng.Intn(2))},
				op:           Mode(rng.Intn(2)),
				contribution: math.Round(rng.NormFloat64()*4) / 4, // force ties
			}
		}
		a := append([]candidate(nil), cands...)
		b := append([]candidate(nil), cands...)
		rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		sortCandidates(a)
		sortCandidates(b)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		// Contributions never increase along the order.
		for i := 1; i < len(a); i++ {
			if a[i-1].contribution < a[i].contribution {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCombinationsCountMatchesBinomial: the enumerator visits
// exactly C(n, k) combinations, each strictly increasing.
func TestQuickCombinationsCountMatchesBinomial(t *testing.T) {
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw%10) + 1
		k := int(kRaw%10) + 1
		count := 0
		valid := true
		combinations(n, k, func(idx []int) bool {
			count++
			for i := 1; i < len(idx); i++ {
				if idx[i] <= idx[i-1] {
					valid = false
				}
			}
			return true
		})
		return valid && count == binomial(n, k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTauEqualsContributionSum: on arbitrary user-item graphs,
// the search-space τ always equals the sum of the remove-candidate
// contributions (Algorithm 1's accumulation invariant).
func TestQuickTauEqualsContributionSum(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := hin.NewGraph()
		user := g.Types().NodeType("user")
		item := g.Types().NodeType("item")
		rated := g.Types().EdgeType("rated")
		nUsers, nItems := 3+rng.Intn(3), 6+rng.Intn(6)
		for i := 0; i < nUsers; i++ {
			g.AddNode(user, "")
		}
		for i := 0; i < nItems; i++ {
			g.AddNode(item, "")
		}
		for i := 0; i < nUsers*4; i++ {
			u := hin.NodeID(rng.Intn(nUsers))
			it := hin.NodeID(nUsers + rng.Intn(nItems))
			if !g.HasEdge(u, it) {
				_ = g.AddBidirectional(u, it, rated, 0.5+rng.Float64())
			}
		}
		cfg := rec.DefaultConfig(item)
		cfg.Beta = 1
		r, err := rec.New(g, cfg)
		if err != nil {
			return false
		}
		ex := New(g, r, Options{AllowedEdgeTypes: hin.NewEdgeTypeSet(rated), AddEdgeType: rated})
		u := hin.NodeID(rng.Intn(nUsers))
		top, err := r.TopN(u, 3)
		if err != nil || len(top) < 2 {
			return true // no scenario, vacuously fine
		}
		s, err := ex.newSession(context.Background(), Query{User: u, WNI: top[len(top)-1].Node}, Remove)
		if err != nil {
			return true
		}
		var sum float64
		for _, c := range s.cands {
			sum += c.contribution
		}
		return math.Abs(sum-s.tau) <= 1e-9*(1+math.Abs(s.tau))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickVerifyAgreesWithReplay: for random hand-built counterfactual
// edge sets (valid removals of user actions), Verify must agree with an
// independent overlay replay.
func TestQuickVerifyAgreesWithReplay(t *testing.T) {
	f := func(seed int64, mask uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		fx := buildQuickFixture(rng)
		if fx == nil {
			return true
		}
		u := fx.user
		actions := fx.g.OutEdgesOfType(u, hin.NewEdgeTypeSet(fx.rated))
		if len(actions) == 0 {
			return true
		}
		var removals []hin.Edge
		for i, e := range actions {
			if mask&(1<<uint(i%8)) != 0 && len(removals) < len(actions)-1 {
				removals = append(removals, e)
			}
		}
		if len(removals) == 0 {
			return true
		}
		expl := &Explanation{Query: Query{User: u, WNI: fx.wni}, Mode: Remove, Removals: removals}
		ok, err := fx.ex.Verify(expl)
		if err != nil {
			return true // e.g. WNI became invalid; not this property's concern
		}
		o, err := hin.NewOverlay(fx.g, removals, nil)
		if err != nil {
			return false
		}
		topAfter, err := rebuilt(fx.r, o).Recommend(u)
		if err != nil {
			return !ok
		}
		return ok == (topAfter == fx.wni)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

type quickFixture struct {
	g     *hin.Graph
	r     *rec.Recommender
	ex    *Explainer
	rated hin.EdgeTypeID
	user  hin.NodeID
	wni   hin.NodeID
}

func buildQuickFixture(rng *rand.Rand) *quickFixture {
	g := hin.NewGraph()
	user := g.Types().NodeType("user")
	item := g.Types().NodeType("item")
	rated := g.Types().EdgeType("rated")
	nUsers, nItems := 3+rng.Intn(3), 6+rng.Intn(6)
	for i := 0; i < nUsers; i++ {
		g.AddNode(user, "")
	}
	for i := 0; i < nItems; i++ {
		g.AddNode(item, "")
	}
	for i := 0; i < nUsers*4; i++ {
		u := hin.NodeID(rng.Intn(nUsers))
		it := hin.NodeID(nUsers + rng.Intn(nItems))
		if !g.HasEdge(u, it) {
			_ = g.AddBidirectional(u, it, rated, 0.5+rng.Float64())
		}
	}
	cfg := rec.DefaultConfig(item)
	cfg.Beta = 1
	r, err := rec.New(g, cfg)
	if err != nil {
		return nil
	}
	u := hin.NodeID(rng.Intn(nUsers))
	top, err := r.TopN(u, 3)
	if err != nil || len(top) < 2 {
		return nil
	}
	return &quickFixture{
		g:     g,
		r:     r,
		ex:    New(g, r, Options{AllowedEdgeTypes: hin.NewEdgeTypeSet(rated), AddEdgeType: rated}),
		rated: rated,
		user:  u,
		wni:   top[1].Node,
	}
}

package emigre

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"github.com/why-not-xai/emigre/internal/fmath"
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

// binomial returns C(n, k): the count oracle of the enumerator tests.
func binomial(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	k = min(k, n-k)
	res := 1
	for i := 0; i < k; i++ {
		res = res * (n - i) / (i + 1)
	}
	return res
}

// TestQuickRankedStreamMatchesReference: Powerset's and Exhaustive's
// streams yield exactly the index tuples, in exactly the order, of the
// per-size generators they replaced (refPowerset, refExhaustive), and
// count the same CombosExamined, also when the consumer stops early.
// Scores come from a small set so that exact ties are common.
func TestQuickRankedStreamMatchesReference(t *testing.T) {
	values := []float64{-0.5, 0.1, 0.2, 0.25, 0.3, 0.5}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, maxSize := 1+rng.Intn(10), 1+rng.Intn(4)
		h := make([]candidate, n)
		for i := range h {
			// From carries the index, so a yielded set maps back to its tuple.
			h[i] = candidate{
				edge:         hin.Edge{From: hin.NodeID(i), To: hin.NodeID(rng.Intn(4))},
				op:           Mode(rng.Intn(2)),
				contribution: values[1+rng.Intn(len(values)-1)],
			}
		}
		stopAt := -1 // the consumer stops after this many sets, or never
		if rng.Intn(2) == 0 {
			stopAt = rng.Intn(20)
		}
		var want [][]int
		collect := func(got *[][]int) func(idx []int) bool {
			return func(idx []int) bool {
				*got = append(*got, slices.Clone(idx))
				return len(*got) != stopAt
			}
		}
		sameAs := func(s *session, gen checkStream, want [][]int, wantCombos int) bool {
			var got [][]int
			keep := collect(&got)
			if err := gen(func(cands []candidate) bool {
				idx := make([]int, len(cands))
				for i, c := range cands {
					idx[i] = int(c.edge.From)
				}
				return keep(idx)
			}); err != nil {
				return false
			}
			return slices.EqualFunc(got, want, slices.Equal[[]int]) && s.stats.CombosExamined == wantCombos
		}
		newSession := func(rank int, tau float64) *session {
			return &session{ex: &Explainer{opts: Options{MaxCombinationSize: maxSize, TargetRank: rank}}, tau: tau}
		}

		tau := values[rng.Intn(len(values))] * float64(1+rng.Intn(4))
		s := newSession(1, tau)
		combos := 0
		refPowerset(h, maxSize, func(total float64) bool { return s.gapFlipped(tau - total) }, &combos, collect(&want))
		if !sameAs(s, s.powersetStream(h), want, combos) {
			return false
		}

		targets := make([]hin.NodeID, 1+rng.Intn(3))
		reduction := make([][]float64, n)
		threshold := make([]float64, len(targets))
		for k := range targets {
			targets[k] = hin.NodeID(rng.Intn(4))
			threshold[k] = values[rng.Intn(len(values))]
		}
		for i := range reduction {
			reduction[i] = make([]float64, len(targets))
			for k := range targets {
				reduction[i][k] = values[rng.Intn(len(values))]
			}
		}
		rank := 1 + rng.Intn(2)
		want, combos = nil, 0
		refExhaustive(h, maxSize, targets, reduction, threshold, rank-1, &combos, collect(&want))
		s = newSession(rank, 0)
		return sameAs(s, s.exhaustiveStream(h, targets, reduction, threshold), want, combos)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// refPowerset is Algorithm 4's generator as it stood before the shared
// ranked stream: each size's combinations copied out with their totals,
// sorted by total descending and lexicographically on ties, and yielded
// until the first one whose total does not flip the gap.
func refPowerset(h []candidate, maxSize int, flips func(total float64) bool, examined *int, yield func(idx []int) bool) {
	type combo struct {
		idx   []int
		total float64
	}
	for size := 1; size <= min(maxSize, len(h)); size++ {
		var combos []combo
		combinations(len(h), size, func(idx []int) bool {
			var total float64
			for _, i := range idx {
				total += h[i].contribution
			}
			combos = append(combos, combo{idx: append([]int(nil), idx...), total: total})
			return true
		})
		sort.Slice(combos, func(i, j int) bool {
			if !fmath.Eq(combos[i].total, combos[j].total) {
				return combos[i].total > combos[j].total
			}
			return lexLess(combos[i].idx, combos[j].idx)
		})
		for _, cb := range combos {
			*examined++
			if !flips(cb.total) {
				break
			}
			if !yield(cb.idx) {
				return
			}
		}
	}
}

// refExhaustive is Algorithm 5's generator as it stood before the shared
// ranked stream: each size's combinations filtered by domination (up to
// allowedMisses negative-slack columns, a column skipped when the
// combination adds an edge to its target), the survivors sorted by worst
// slack descending and lexicographically on ties.
func refExhaustive(h []candidate, maxSize int, targets []hin.NodeID, reduction [][]float64, threshold []float64, allowedMisses int, examined *int, yield func(idx []int) bool) {
	type survivor struct {
		idx    []int
		margin float64
	}
	for size := 1; size <= min(maxSize, len(h)); size++ {
		var survivors []survivor
		combinations(len(h), size, func(idx []int) bool {
			*examined++
			misses := 0
			worst := math.Inf(1)
			for k := range targets {
				if comboContainsAddedEndpoint(h, idx, targets[k]) {
					continue
				}
				var sum float64
				for _, i := range idx {
					sum += reduction[i][k]
				}
				slack := sum - threshold[k]
				if slack < 0 {
					misses++
					if misses > allowedMisses {
						return true
					}
					continue
				}
				if slack < worst {
					worst = slack
				}
			}
			survivors = append(survivors, survivor{idx: append([]int(nil), idx...), margin: worst})
			return true
		})
		sort.Slice(survivors, func(i, j int) bool {
			if !fmath.Eq(survivors[i].margin, survivors[j].margin) {
				return survivors[i].margin > survivors[j].margin
			}
			return lexLess(survivors[i].idx, survivors[j].idx)
		})
		for _, sv := range survivors {
			if !yield(sv.idx) {
				return
			}
		}
	}
}

func lexLess(a, b []int) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
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
			if !hasEdge(g, u, it) {
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
		s, err := ex.newSession(context.Background(), Query{User: u, WNI: top[len(top)-1].Node}, nil, Remove, Powerset)
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
		ref, err := edited(fx.g, removals, nil)
		if err != nil {
			return false
		}
		topAfter, err := rebuilt(fx.r, ref).Recommend(u)
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
		if !hasEdge(g, u, it) {
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

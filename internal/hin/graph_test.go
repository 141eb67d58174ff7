package hin

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// buildTriangle returns a small typed graph:
//
//	u (user) -> a (item), u -> b (item), a -> c (category), b -> c
func buildTriangle(t *testing.T) (*Graph, []NodeID) {
	t.Helper()
	g := NewGraph()
	user := g.Types().NodeType("user")
	item := g.Types().NodeType("item")
	cat := g.Types().NodeType("category")
	rated := g.Types().EdgeType("rated")
	belongs := g.Types().EdgeType("belongs-to")

	u := g.AddNode(user, "u")
	a := g.AddNode(item, "a")
	b := g.AddNode(item, "b")
	c := g.AddNode(cat, "c")
	for _, e := range []struct {
		from, to NodeID
		typ      EdgeTypeID
		w        float64
	}{
		{u, a, rated, 1},
		{u, b, rated, 2},
		{a, c, belongs, 1},
		{b, c, belongs, 1},
	} {
		if err := g.AddEdge(e.from, e.to, e.typ, e.w); err != nil {
			t.Fatalf("AddEdge(%v): %v", e, err)
		}
	}
	return g, []NodeID{u, a, b, c}
}

func TestAddNodeAssignsDenseIDs(t *testing.T) {
	g := NewGraph()
	typ := g.Types().NodeType("x")
	for i := 0; i < 10; i++ {
		if got := g.AddNode(typ, ""); got != NodeID(i) {
			t.Fatalf("AddNode #%d = %d, want %d", i, got, i)
		}
	}
	if g.NumNodes() != 10 {
		t.Fatalf("NumNodes = %d, want 10", g.NumNodes())
	}
}

func TestNodeByLabel(t *testing.T) {
	g, ids := buildTriangle(t)
	u, ok := g.NodeByLabel("u")
	if !ok || u != ids[0] {
		t.Fatalf("NodeByLabel(u) = %d, %v; want %d, true", u, ok, ids[0])
	}
	if _, ok := g.NodeByLabel("nope"); ok {
		t.Fatal("NodeByLabel(nope) should not resolve")
	}
}

func TestDuplicateLabelPanics(t *testing.T) {
	g := NewGraph()
	typ := g.Types().NodeType("x")
	g.AddNode(typ, "dup")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate label")
		}
	}()
	g.AddNode(typ, "dup")
}

func TestAddEdgeValidation(t *testing.T) {
	g, ids := buildTriangle(t)
	u, a := ids[0], ids[1]
	rated, _ := g.Types().LookupEdgeType("rated")

	cases := []struct {
		name    string
		from    NodeID
		to      NodeID
		w       float64
		wantErr error
	}{
		{"out of range from", 99, a, 1, ErrNodeOutOfRange},
		{"out of range to", u, -1, 1, ErrNodeOutOfRange},
		{"self loop", u, u, 1, ErrSelfLoop},
		{"zero weight", a, u, 0, ErrBadWeight},
		{"negative weight", a, u, -3, ErrBadWeight},
		{"nan weight", a, u, math.NaN(), ErrBadWeight},
		{"inf weight", a, u, math.Inf(1), ErrBadWeight},
		{"duplicate typed edge", u, a, 1, ErrDuplicateEdge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := g.AddEdge(tc.from, tc.to, rated, tc.w); !errors.Is(err, tc.wantErr) {
				t.Fatalf("AddEdge = %v, want %v", err, tc.wantErr)
			}
		})
	}
}

func TestParallelEdgesOfDifferentTypes(t *testing.T) {
	g, ids := buildTriangle(t)
	u, a := ids[0], ids[1]
	reviewed := g.Types().EdgeType("reviewed")
	if err := g.AddEdge(u, a, reviewed, 0.5); err != nil {
		t.Fatalf("parallel typed edge rejected: %v", err)
	}
	if g.OutDegree(u) != 3 {
		t.Fatalf("OutDegree(u) = %d, want 3", g.OutDegree(u))
	}
	// W(u,a) sums both parallel edges: (1 + 0.5) / (1 + 2 + 0.5).
	want := 1.5 / 3.5
	if got := transitionTo(NewCSR(g), u, a); math.Abs(got-want) > 1e-15 {
		t.Fatalf("W(u,a) = %g, want %g", got, want)
	}
}

func TestRemoveEdge(t *testing.T) {
	g, ids := buildTriangle(t)
	u, a := ids[0], ids[1]
	rated, _ := g.Types().LookupEdgeType("rated")

	if err := g.RemoveEdge(u, a, rated); err != nil {
		t.Fatalf("RemoveEdge: %v", err)
	}
	if hasEdge(g.out[u], a) {
		t.Fatal("HasEdge(u,a) should be false after removal")
	}
	if g.OutDegree(u) != 1 {
		t.Fatalf("OutDegree(u) = %d, want 1", g.OutDegree(u))
	}
	if got := g.OutWeightSum(u); math.Abs(got-2) > 1e-15 {
		t.Fatalf("OutWeightSum(u) = %g, want 2", got)
	}
	if err := g.RemoveEdge(u, a, rated); !errors.Is(err, ErrNoSuchEdge) {
		t.Fatalf("second RemoveEdge = %v, want ErrNoSuchEdge", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate after removal: %v", err)
	}
}

func TestHasEdgeCountsParallelTypes(t *testing.T) {
	g, ids := buildTriangle(t)
	u, a := ids[0], ids[1]
	rated, _ := g.Types().LookupEdgeType("rated")
	reviewed := g.Types().EdgeType("reviewed")
	if err := g.AddEdge(u, a, reviewed, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.RemoveEdge(u, a, rated); err != nil {
		t.Fatal(err)
	}
	if !hasEdge(g.out[u], a) {
		t.Fatal("HasEdge should still be true: reviewed edge remains")
	}
	if err := g.RemoveEdge(u, a, reviewed); err != nil {
		t.Fatal(err)
	}
	if hasEdge(g.out[u], a) {
		t.Fatal("HasEdge should be false after removing both typed edges")
	}
}

func TestAddBidirectional(t *testing.T) {
	g, ids := buildTriangle(t)
	a, c := ids[1], ids[3]
	sim := g.Types().EdgeType("similar")
	if err := g.AddBidirectional(a, c, sim, 0.7); err != nil {
		t.Fatal(err)
	}
	if !hasEdge(g.out[a], c) || !hasEdge(g.out[c], a) {
		t.Fatal("bidirectional edge missing a direction")
	}
	// Rollback path: second direction collides -> first removed.
	b := ids[2]
	if err := g.AddEdge(c, b, sim, 1); err != nil {
		t.Fatal(err)
	}
	before := g.NumEdges()
	if err := g.AddBidirectional(b, c, sim, 1); !errors.Is(err, ErrDuplicateEdge) {
		t.Fatalf("AddBidirectional = %v, want ErrDuplicateEdge", err)
	}
	if g.NumEdges() != before {
		t.Fatalf("edge count changed on failed AddBidirectional: %d -> %d", before, g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeWeight(t *testing.T) {
	g, ids := buildTriangle(t)
	u, b := ids[0], ids[2]
	rated, _ := g.Types().LookupEdgeType("rated")
	w, ok := g.EdgeWeight(u, b, rated)
	if !ok || w != 2 {
		t.Fatalf("EdgeWeight(u,b) = %g, %v; want 2, true", w, ok)
	}
	if _, ok := g.EdgeWeight(b, u, rated); ok {
		t.Fatal("EdgeWeight should be directional")
	}
}

func TestOutEdgesOfTypeFilter(t *testing.T) {
	g, ids := buildTriangle(t)
	u, a := ids[0], ids[1]
	reviewed := g.Types().EdgeType("reviewed")
	rated, _ := g.Types().LookupEdgeType("rated")
	if err := g.AddEdge(u, a, reviewed, 1); err != nil {
		t.Fatal(err)
	}
	onlyRated := g.OutEdgesOfType(u, NewEdgeTypeSet(rated))
	if len(onlyRated) != 2 {
		t.Fatalf("rated edges = %d, want 2", len(onlyRated))
	}
	all := g.OutEdgesOfType(u, NewEdgeTypeSet())
	if len(all) != 3 {
		t.Fatalf("all edges = %d, want 3", len(all))
	}
}

func TestCloneIsIndependent(t *testing.T) {
	g, ids := buildTriangle(t)
	u, a := ids[0], ids[1]
	rated, _ := g.Types().LookupEdgeType("rated")
	c := g.Clone()
	if err := c.RemoveEdge(u, a, rated); err != nil {
		t.Fatal(err)
	}
	if !hasEdge(g.out[u], a) {
		t.Fatal("mutating clone affected original")
	}
	if hasEdge(c.out[u], a) {
		t.Fatal("clone did not apply mutation")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// transitionTo is W(u,v) on c: u's transition probabilities summed
// over its parallel typed edges to v.
func transitionTo(c *CSR, u, v NodeID) float64 {
	var w float64
	for i, h := range c.OutSlice(u) {
		if h.Node == v {
			w += c.OutProbs(u)[i]
		}
	}
	return w
}

func TestTransitionRowIsStochastic(t *testing.T) {
	g, ids := buildTriangle(t)
	c := NewCSR(g)
	u := ids[0]
	var sum float64
	for _, p := range c.OutProbs(u) {
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("transition row sums to %g, want 1", sum)
	}
	// Dangling node: transition is zero everywhere.
	d := ids[3]
	if got := transitionTo(c, d, u); got != 0 {
		t.Fatalf("W(dangling, u) = %g, want 0", got)
	}
}

func TestEdgeTypeSet(t *testing.T) {
	s := NewEdgeTypeSet(1, 3)
	if !s.Contains(1) || !s.Contains(3) {
		t.Fatal("set should contain registered types")
	}
	if s.Contains(0) || s.Contains(2) {
		t.Fatal("set should not contain unregistered types")
	}
	all := NewEdgeTypeSet()
	if !all.Contains(42) {
		t.Fatal("empty set should allow everything")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for type id > 63")
		}
	}()
	NewEdgeTypeSet(64)
}

// randomGraph builds a pseudo-random bidirectional typed graph for
// property tests.
func randomGraph(rng *rand.Rand, nodes, edges int) *Graph {
	g := NewGraph()
	nt := g.Types().NodeType("n")
	et := g.Types().EdgeType("e")
	for i := 0; i < nodes; i++ {
		g.AddNode(nt, "")
	}
	for i := 0; i < edges; i++ {
		a := NodeID(rng.Intn(nodes))
		b := NodeID(rng.Intn(nodes))
		if a == b {
			continue
		}
		w := rng.Float64() + 0.1
		// Ignore duplicate errors: the property is about surviving edges.
		_ = g.AddBidirectional(a, b, et, w)
	}
	return g
}

func TestRandomGraphsValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		g := randomGraph(rng, 2+rng.Intn(30), rng.Intn(120))
		if err := g.Validate(); err != nil {
			t.Fatalf("random graph #%d invalid: %v", i, err)
		}
	}
}

func TestQuickRemoveRestoresWeightSum(t *testing.T) {
	// Property: adding then removing an edge restores the out-weight sum
	// and degree exactly (weights are compared bit-exactly because the
	// cached sum uses the same additions and subtractions).
	f := func(seed int64, wRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 12, 30)
		et := g.Types().EdgeType("extra")
		a, b := NodeID(rng.Intn(12)), NodeID(rng.Intn(12))
		if a == b || hasEdge(g.out[a], b) {
			return true
		}
		w := float64(wRaw)/1000 + 0.001
		beforeDeg := g.OutDegree(a)
		if err := g.AddEdge(a, b, et, w); err != nil {
			return false
		}
		if err := g.RemoveEdge(a, b, et); err != nil {
			return false
		}
		return g.OutDegree(a) == beforeDeg && g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// hubGraph returns a star: spokes+1 nodes, every spoke with a "to-hub"
// edge into node 0 and a "from-hub" edge out of it, so the hub's in- and
// out-lists are as long as there are spokes and each spoke's are one.
func hubGraph(t *testing.T, spokes int) (*Graph, EdgeTypeID, EdgeTypeID) {
	t.Helper()
	g := NewGraph()
	nt := g.Types().NodeType("n")
	toHub, fromHub := g.Types().EdgeType("to-hub"), g.Types().EdgeType("from-hub")
	hub := g.AddNode(nt, "")
	for i := 0; i < spokes; i++ {
		s := g.AddNode(nt, "")
		if err := g.AddEdge(s, hub, toHub, float64(i+1)); err != nil {
			t.Fatal(err)
		}
		if err := g.AddEdge(hub, s, fromHub, 1); err != nil {
			t.Fatal(err)
		}
	}
	return g, toHub, fromHub
}

// TestAddEdgeDuplicateAtHub: a duplicate typed edge is rejected whether
// the shorter list that AddEdge searches is the source's out-list or the
// target's in-list, and a parallel edge of another type is not.
func TestAddEdgeDuplicateAtHub(t *testing.T) {
	for _, spokes := range []int{1, 3, 100} {
		g, toHub, fromHub := hubGraph(t, spokes)
		last := NodeID(spokes)
		if err := g.AddEdge(last, 0, toHub, 5); !errors.Is(err, ErrDuplicateEdge) {
			t.Fatalf("%d spokes: spoke→hub duplicate: %v, want ErrDuplicateEdge", spokes, err)
		}
		if err := g.AddEdge(0, last, fromHub, 5); !errors.Is(err, ErrDuplicateEdge) {
			t.Fatalf("%d spokes: hub→spoke duplicate: %v, want ErrDuplicateEdge", spokes, err)
		}
		if err := g.AddEdge(0, last, toHub, 5); err != nil {
			t.Fatalf("%d spokes: parallel edge of another type: %v", spokes, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestValidateCatchesCorruption corrupts a copy of a hub graph in each
// way Validate must catch, at the hub's long lists and at a spoke's
// one-entry lists, and expects an error every time.
func TestValidateCatchesCorruption(t *testing.T) {
	const spokes = 100
	base, _, fromHub := hubGraph(t, spokes)
	if err := base.Validate(); err != nil {
		t.Fatal(err)
	}
	const hub, spoke = NodeID(0), NodeID(7)
	ulp := func(w float64) float64 { return math.Nextafter(w, math.Inf(1)) }
	cases := []struct {
		name    string
		corrupt func(g *Graph)
	}{
		{"hub in-list entry dropped", func(g *Graph) {
			g.in[hub] = append(g.in[hub][:42], g.in[hub][43:]...)
		}},
		{"spoke in-list entry dropped", func(g *Graph) { g.in[spoke] = g.in[spoke][:0] }},
		{"hub in-list entry duplicated", func(g *Graph) {
			g.in[hub] = append(g.in[hub], g.in[hub][42])
		}},
		{"hub in-list entry replaced by a duplicate", func(g *Graph) {
			g.in[hub][43] = g.in[hub][42]
		}},
		{"hub in-list entry of the wrong type", func(g *Graph) { g.in[hub][42].Type = fromHub }},
		{"spoke in-list entry of the wrong type", func(g *Graph) { g.in[spoke][0].Type = 0 }},
		{"hub in-list weight off by one ulp", func(g *Graph) {
			g.in[hub][42].Weight = ulp(g.in[hub][42].Weight)
		}},
		{"spoke in-list weight off by one ulp", func(g *Graph) {
			g.in[spoke][0].Weight = ulp(g.in[spoke][0].Weight)
		}},
		{"hub out-weight drift", func(g *Graph) { g.outWeight[hub] += 1 }},
		{"spoke out-weight drift", func(g *Graph) { g.outWeight[spoke] *= 2 }},
		{"edge count one high", func(g *Graph) { g.numEdges++ }},
		{"edge count one low", func(g *Graph) { g.numEdges-- }},
		{"out-edge to a node past the end", func(g *Graph) { g.out[spoke][0].Node = NodeID(g.NumNodes()) }},
		{"out-edge to a negative node", func(g *Graph) { g.out[hub][42].Node = -1 }},
		{"bad weight on both lists", func(g *Graph) {
			g.out[spoke][0].Weight = -1
			for i, h := range g.in[hub] {
				if h.Node == spoke {
					g.in[hub][i].Weight = -1
				}
			}
		}},
	}
	for _, tc := range cases {
		g := base.Clone()
		tc.corrupt(g)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: Validate returned nil", tc.name)
		}
		if err := base.Validate(); err != nil {
			t.Fatalf("%s: corrupting the clone broke the original: %v", tc.name, err)
		}
	}
}

// TestReserve: building up to the reserved degrees regrows no list,
// reserving on a populated graph keeps its content, and a slice of the
// wrong length panics.
func TestReserve(t *testing.T) {
	g := NewGraph()
	nt, et := g.Types().NodeType("n"), g.Types().EdgeType("e")
	outDeg, inDeg := []int{3, 1, 0, 1}, []int{0, 1, 2, 2}
	for range outDeg {
		g.AddNode(nt, "")
	}
	g.Reserve(outDeg, inDeg)
	edges := [][2]NodeID{{0, 1}, {0, 2}, {0, 3}, {1, 3}, {3, 2}}
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1], et, 1); err != nil {
			t.Fatal(err)
		}
	}
	for v := range outDeg {
		// A regrown list would have more room than it holds.
		if cap(g.out[v]) != outDeg[v] || cap(g.in[v]) != inDeg[v] {
			t.Fatalf("node %d regrown: room %d/%d, want %d/%d", v, cap(g.out[v]), cap(g.in[v]), outDeg[v], inDeg[v])
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}

	tri, ids := buildTriangle(t)
	var out []HalfEdge
	tri.OutEdges(ids[0], func(h HalfEdge) bool { out = append(out, h); return true })
	tri.Reserve([]int{1, 1, 1, 1}, []int{2, 2, 2, 2})
	if !slices.Equal(tri.out[ids[0]], out) || tri.NumNodes() != 4 || tri.NumEdges() != 4 {
		t.Errorf("Reserve changed the graph: out-list %v, want %v", tri.out[ids[0]], out)
	}
	if cap(tri.out[ids[0]]) != len(out)+1 {
		t.Errorf("out-list room %d, want %d", cap(tri.out[ids[0]]), len(out)+1)
	}
	if err := tri.Validate(); err != nil {
		t.Fatal(err)
	}

	defer func() {
		if recover() == nil {
			t.Error("Reserve with one degree too many did not panic")
		}
	}()
	tri.Reserve(make([]int, 5), make([]int, 5))
}

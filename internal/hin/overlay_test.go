package hin

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

func edgesEqual(g *Graph, v NodeID, want []HalfEdge) bool {
	return slices.Equal(g.out[v], want)
}

// hasEdge reports whether row holds an edge to node to, of any type.
func hasEdge(row []HalfEdge, to NodeID) bool {
	return slices.ContainsFunc(row, func(h HalfEdge) bool { return h.Node == to })
}

// patched is g's snapshot with o's edited row of u patched in: the
// counterfactual a cold CHECK drains.
func patched(g *Graph, o *Overlay, u NodeID) *CSR {
	row, sum := o.MixedRow(nil, u, 1)
	return NewCSR(g).WithOutRow(u, row, sum)
}

func TestOverlayRemove(t *testing.T) {
	g, ids := buildTriangle(t)
	u, a, b := ids[0], ids[1], ids[2]
	rated, _ := g.Types().LookupEdgeType("rated")

	o, err := NewOverlay(g, []Edge{{From: u, To: a, Type: rated, Weight: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := patched(g, o, u)
	if hasEdge(p.OutSlice(u), a) {
		t.Fatal("removed edge still visible")
	}
	if !hasEdge(p.OutSlice(u), b) {
		t.Fatal("untouched edge missing")
	}
	if got := len(p.OutSlice(u)); got != 1 {
		t.Fatalf("OutDegree = %d, want 1", got)
	}
	if got := p.OutWeightSum(u); math.Abs(got-2) > 1e-15 {
		t.Fatalf("OutWeightSum = %g, want 2", got)
	}
	// Base graph unchanged.
	if !hasEdge(g.out[u], a) || g.OutDegree(u) != 2 {
		t.Fatal("overlay mutated the base graph")
	}
}

func TestOverlayAdd(t *testing.T) {
	g, ids := buildTriangle(t)
	u, c := ids[0], ids[3]
	rated, _ := g.Types().LookupEdgeType("rated")

	o, err := NewOverlay(g, nil, []Edge{{From: u, To: c, Type: rated, Weight: 4}})
	if err != nil {
		t.Fatal(err)
	}
	p := patched(g, o, u)
	if !hasEdge(p.OutSlice(u), c) {
		t.Fatal("added edge not visible")
	}
	if got := len(p.OutSlice(u)); got != 3 {
		t.Fatalf("OutDegree = %d, want 3", got)
	}
	if got := p.OutWeightSum(u); math.Abs(got-7) > 1e-15 {
		t.Fatalf("OutWeightSum = %g, want 7", got)
	}
	// The patched row carries the addition's transition probability.
	if !slices.Contains(p.OutProbs(u), 4.0/7) {
		t.Fatal("added edge missing from the patched row's probabilities")
	}
	if hasEdge(g.out[u], c) {
		t.Fatal("overlay mutated the base graph")
	}
}

func TestOverlayValidation(t *testing.T) {
	g, ids := buildTriangle(t)
	u, a, c := ids[0], ids[1], ids[3]
	rated, _ := g.Types().LookupEdgeType("rated")
	belongs, _ := g.Types().LookupEdgeType("belongs-to")

	cases := []struct {
		name      string
		removals  []Edge
		additions []Edge
		wantErr   error
	}{
		{"remove missing edge", []Edge{{From: a, To: u, Type: rated}}, nil, ErrNoSuchEdge},
		{"remove wrong type", []Edge{{From: u, To: a, Type: belongs}}, nil, ErrNoSuchEdge},
		{"remove twice", []Edge{{From: u, To: a, Type: rated}, {From: u, To: a, Type: rated}}, nil, nil},
		{"add existing edge", nil, []Edge{{From: u, To: a, Type: rated, Weight: 1}}, ErrDuplicateEdge},
		{"add self loop", nil, []Edge{{From: u, To: u, Type: rated, Weight: 1}}, ErrSelfLoop},
		{"add bad weight", nil, []Edge{{From: u, To: a, Type: belongs, Weight: 0}}, ErrBadWeight},
		{"add NaN weight", nil, []Edge{{From: u, To: a, Type: belongs, Weight: math.NaN()}}, ErrBadWeight},
		{"add +Inf weight", nil, []Edge{{From: u, To: a, Type: belongs, Weight: math.Inf(1)}}, ErrBadWeight},
		{"add -Inf weight", nil, []Edge{{From: u, To: a, Type: belongs, Weight: math.Inf(-1)}}, ErrBadWeight},
		{"add out of range", nil, []Edge{{From: u, To: 99, Type: rated, Weight: 1}}, ErrNodeOutOfRange},
		{"add twice", nil, []Edge{{From: a, To: u, Type: rated, Weight: 1}, {From: a, To: u, Type: rated, Weight: 1}}, ErrDuplicateEdge},
		{"remove from two rows", []Edge{{From: u, To: a, Type: rated}, {From: a, To: c, Type: belongs}}, nil, ErrMultiRow},
		{"add to two rows", nil, []Edge{{From: u, To: c, Type: rated, Weight: 1}, {From: a, To: u, Type: rated, Weight: 1}}, ErrMultiRow},
		{"remove and add in two rows", []Edge{{From: u, To: a, Type: rated}}, []Edge{{From: a, To: u, Type: rated, Weight: 1}}, ErrMultiRow},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewOverlay(g, tc.removals, tc.additions)
			if err == nil {
				t.Fatal("expected error")
			}
			if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
		})
	}
}

func TestOverlayRemoveThenAddSamePairDifferentType(t *testing.T) {
	g, ids := buildTriangle(t)
	u, a := ids[0], ids[1]
	rated, _ := g.Types().LookupEdgeType("rated")
	reviewed := g.Types().EdgeType("reviewed")

	o, err := NewOverlay(g,
		[]Edge{{From: u, To: a, Type: rated}},
		[]Edge{{From: u, To: a, Type: reviewed, Weight: 3}})
	if err != nil {
		t.Fatal(err)
	}
	p := patched(g, o, u)
	if !hasEdge(p.OutSlice(u), a) {
		t.Fatal("pair should still have an edge (reviewed added)")
	}
	if got := p.OutWeightSum(u); math.Abs(got-5) > 1e-15 { // 3 (base b) + 3 - 1
		t.Fatalf("OutWeightSum = %g, want 5", got)
	}
}

// cloneWithEdits is the overlay's reference: a Clone of g with the
// removals and then the additions applied by RemoveEdge and AddEdge, the
// first failure returned. It shares no code with Overlay.
func cloneWithEdits(g *Graph, removals, additions []Edge) (*Graph, error) {
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

// randomRowEdits draws valid edits of v's out-row in g: each typed
// out-edge removed with probability pRemove, and up to nAdd new edges of
// type et to distinct nodes.
func randomRowEdits(rng *rand.Rand, g *Graph, v NodeID, et EdgeTypeID, pRemove float64, nAdd int) (removals, additions []Edge) {
	for _, e := range g.OutEdgesOfType(v, NewEdgeTypeSet()) {
		if rng.Float64() < pRemove {
			removals = append(removals, e)
		}
	}
	for range nAdd {
		to := NodeID(rng.Intn(g.NumNodes()))
		if to == v || slices.ContainsFunc(additions, func(e Edge) bool { return e.To == to }) {
			continue
		}
		if _, exists := g.EdgeWeight(v, to, et); exists {
			continue
		}
		additions = append(additions, Edge{From: v, To: to, Type: et, Weight: rng.Float64() + 0.1})
	}
	return removals, additions
}

func TestOverlayMaterializeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		g := randomGraph(rng, 10, 40)
		et, _ := g.Types().LookupEdgeType("e")
		v := NodeID(rng.Intn(g.NumNodes()))
		removals, additions := randomRowEdits(rng, g, v, et, 0.4, 3)

		o, err := NewOverlay(g, removals, additions)
		if err != nil {
			t.Fatalf("trial %d: overlay: %v", trial, err)
		}
		m, err := cloneWithEdits(g, removals, additions)
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		// The patched snapshot and the edited clone must agree on every
		// out-row query.
		csrMatches(t, m, patched(g, o, v))
	}
}

// TestEmptiedRowSumsToZero pins OutWeightSum's dangling contract
// where floating-point residue would break it: 0.1+0.2+0.3 minus each
// weight in turn leaves ~1e-16, not 0.
func TestEmptiedRowSumsToZero(t *testing.T) {
	g := NewGraph()
	nt := g.Types().NodeType("n")
	et := g.Types().EdgeType("e")
	u := g.AddNode(nt, "u")
	var edges []Edge
	for _, w := range []float64{0.1, 0.2, 0.3} {
		e := Edge{From: u, To: g.AddNode(nt, ""), Type: et, Weight: w}
		if err := g.AddEdge(e.From, e.To, e.Type, e.Weight); err != nil {
			t.Fatal(err)
		}
		edges = append(edges, e)
	}
	o, err := NewOverlay(g, edges, nil)
	if err != nil {
		t.Fatal(err)
	}
	if row, got := o.MixedRow(nil, u, 1); len(row) != 0 || got != 0 {
		t.Errorf("overlay: emptied row has degree %d and sum %g, want 0 and 0", len(row), got)
	}
	for _, e := range edges {
		if err := g.RemoveEdge(e.From, e.To, e.Type); err != nil {
			t.Fatal(err)
		}
	}
	if got := g.OutWeightSum(u); g.OutDegree(u) != 0 || got != 0 {
		t.Errorf("graph: emptied row has degree %d and sum %g, want 0 and 0", g.OutDegree(u), got)
	}
}

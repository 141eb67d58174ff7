package hin

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

func edgesEqual(g View, v NodeID, want []HalfEdge) bool {
	var got []HalfEdge
	g.OutEdges(v, func(h HalfEdge) bool { got = append(got, h); return true })
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func TestOverlayRemove(t *testing.T) {
	g, ids := buildTriangle(t)
	u, a, b := ids[0], ids[1], ids[2]
	rated, _ := g.Types().LookupEdgeType("rated")

	o, err := NewOverlay(g, []Edge{{From: u, To: a, Type: rated, Weight: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.HasEdge(u, a) {
		t.Fatal("removed edge still visible")
	}
	if !o.HasEdge(u, b) {
		t.Fatal("untouched edge missing")
	}
	if got := o.OutDegree(u); got != 1 {
		t.Fatalf("OutDegree = %d, want 1", got)
	}
	if got := o.OutWeightSum(u); math.Abs(got-2) > 1e-15 {
		t.Fatalf("OutWeightSum = %g, want 2", got)
	}
	// Base graph unchanged.
	if !g.HasEdge(u, a) || g.OutDegree(u) != 2 {
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
	if !o.HasEdge(u, c) {
		t.Fatal("added edge not visible")
	}
	if got := o.OutDegree(u); got != 3 {
		t.Fatalf("OutDegree = %d, want 3", got)
	}
	if got := o.OutWeightSum(u); math.Abs(got-7) > 1e-15 {
		t.Fatalf("OutWeightSum = %g, want 7", got)
	}
	// The snapshot's in-row of the target must include the addition.
	start, src, prob := NewCSR(o).InRows()
	if !slices.Contains(src[start[c]:start[c+1]], u) || !slices.Contains(prob[start[c]:start[c+1]], 4.0/7) {
		t.Fatal("added edge missing from the target's in-row")
	}
	if g.HasEdge(u, c) {
		t.Fatal("overlay mutated the base graph")
	}
}

func TestOverlayValidation(t *testing.T) {
	g, ids := buildTriangle(t)
	u, a := ids[0], ids[1]
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
		{"add out of range", nil, []Edge{{From: u, To: 99, Type: rated, Weight: 1}}, ErrNodeOutOfRange},
		{"add twice", nil, []Edge{{From: a, To: u, Type: rated, Weight: 1}, {From: a, To: u, Type: rated, Weight: 1}}, ErrDuplicateEdge},
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
	if !o.HasEdge(u, a) {
		t.Fatal("pair should still have an edge (reviewed added)")
	}
	if got := o.OutWeightSum(u); math.Abs(got-5) > 1e-15 { // 3 (base b) + 3 - 1
		t.Fatalf("OutWeightSum = %g, want 5", got)
	}
}

func TestOverlayComposition(t *testing.T) {
	g, ids := buildTriangle(t)
	u, a, b := ids[0], ids[1], ids[2]
	rated, _ := g.Types().LookupEdgeType("rated")

	o1, err := NewOverlay(g, []Edge{{From: u, To: a, Type: rated}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := NewOverlay(o1, []Edge{{From: u, To: b, Type: rated}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if o2.OutDegree(u) != 0 {
		t.Fatalf("OutDegree = %d, want 0", o2.OutDegree(u))
	}
	if o2.OutWeightSum(u) != 0 {
		t.Fatalf("OutWeightSum = %g, want 0", o2.OutWeightSum(u))
	}
	// Removing an already-removed edge through composition must fail.
	if _, err := NewOverlay(o1, []Edge{{From: u, To: a, Type: rated}}, nil); !errors.Is(err, ErrNoSuchEdge) {
		t.Fatalf("err = %v, want ErrNoSuchEdge", err)
	}
}

func TestOverlayMaterializeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		g := randomGraph(rng, 10, 40)
		et, _ := g.Types().LookupEdgeType("e")

		// Pick random removals from existing edges and random additions.
		var removals, additions []Edge
		for v := 0; v < g.NumNodes(); v++ {
			for _, e := range g.OutEdgesOfType(NodeID(v), NewEdgeTypeSet()) {
				if rng.Float64() < 0.2 {
					removals = append(removals, e)
				}
			}
		}
		for i := 0; i < 5; i++ {
			a, b := NodeID(rng.Intn(10)), NodeID(rng.Intn(10))
			if a == b {
				continue
			}
			if _, exists := g.EdgeWeight(a, b, et); exists {
				continue
			}
			dup := false
			for _, e := range additions {
				if e.From == a && e.To == b {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			additions = append(additions, Edge{From: a, To: b, Type: et, Weight: rng.Float64() + 0.1})
		}

		o, err := NewOverlay(g, removals, additions)
		if err != nil {
			t.Fatalf("trial %d: overlay: %v", trial, err)
		}
		m, err := o.Materialize()
		if err != nil {
			t.Fatalf("trial %d: materialize: %v", trial, err)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("trial %d: materialized graph invalid: %v", trial, err)
		}
		// The overlay and the materialized graph must agree on every
		// view query.
		for v := 0; v < g.NumNodes(); v++ {
			id := NodeID(v)
			if o.OutDegree(id) != m.OutDegree(id) {
				t.Fatalf("trial %d node %d: OutDegree overlay %d != materialized %d",
					trial, v, o.OutDegree(id), m.OutDegree(id))
			}
			if math.Abs(o.OutWeightSum(id)-m.OutWeightSum(id)) > 1e-9 {
				t.Fatalf("trial %d node %d: OutWeightSum overlay %g != materialized %g",
					trial, v, o.OutWeightSum(id), m.OutWeightSum(id))
			}
			var mEdges []HalfEdge
			m.OutEdges(id, func(h HalfEdge) bool { mEdges = append(mEdges, h); return true })
			if !edgesEqual(o, id, mEdges) {
				t.Fatalf("trial %d node %d: out-edge lists differ", trial, v)
			}
			for w := 0; w < g.NumNodes(); w++ {
				if o.HasEdge(id, NodeID(w)) != m.HasEdge(id, NodeID(w)) {
					t.Fatalf("trial %d: HasEdge(%d,%d) disagrees", trial, v, w)
				}
			}
		}
	}
}

func TestOverlayEarlyStopIteration(t *testing.T) {
	g, ids := buildTriangle(t)
	u, c := ids[0], ids[3]
	rated, _ := g.Types().LookupEdgeType("rated")
	o, err := NewOverlay(g, nil, []Edge{{From: u, To: c, Type: rated, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	o.OutEdges(u, func(HalfEdge) bool {
		count++
		return false // stop immediately
	})
	if count != 1 {
		t.Fatalf("iteration did not stop early: %d edges seen", count)
	}
}

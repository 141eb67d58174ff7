package hin

import (
	"math/rand"
	"slices"
	"testing"
)

// TestCSRRowPatchMatchesOverlay verifies that patching an overlay's
// edited row into a CSR is observationally identical to the edited
// graph it models — every out-row reader — and reads the same padded
// out-rows as NewCSR of an edited clone.
func TestCSRRowPatchMatchesOverlay(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 15; trial++ {
		g := randomGraph(rng, 4+rng.Intn(12), 10+rng.Intn(40))
		u := NodeID(rng.Intn(g.NumNodes()))
		et, _ := g.Types().LookupEdgeType("e")

		// Random u-row edits: drop some out-edges, add some new ones.
		var removals, additions []Edge
		for _, e := range g.OutEdgesOfType(u, NewEdgeTypeSet()) {
			if rng.Float64() < 0.5 {
				removals = append(removals, e)
			}
		}
		for i := 0; i < 3; i++ {
			v := NodeID(rng.Intn(g.NumNodes()))
			if v == u {
				continue
			}
			if _, exists := g.EdgeWeight(u, v, et); exists {
				continue
			}
			dup := false
			for _, e := range additions {
				if e.To == v {
					dup = true
				}
			}
			if !dup {
				additions = append(additions, Edge{From: u, To: v, Type: et, Weight: rng.Float64() + 0.1})
			}
		}
		o, err := NewOverlay(g, removals, additions)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		ref, err := cloneWithEdits(g, removals, additions)
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}

		// Build the patch from the overlay's u-row.
		row, sum := o.MixedRow(nil, u, 1)
		base := NewCSR(g)
		p := base.WithOutRow(u, row, sum)

		csrMatches(t, ref, p)
		csrMatches(t, g, base) // the shared arrays are untouched
		// The same transition probabilities as flattening the edited
		// graph itself: what keeps a forward push over either
		// bit-identical.
		flat := NewCSR(ref)
		for v := range NodeID(g.NumNodes()) {
			if !slices.Equal(p.OutProbs(v), flat.OutProbs(v)) {
				t.Fatalf("trial %d: node %d's probabilities %v, NewCSR(edited clone) %v", trial, v, p.OutProbs(v), flat.OutProbs(v))
			}
		}
		_, udst, uprob := p.PatchedRow()
		start, dst, prob := flat.OutRows()
		if !slices.Equal(udst, dst[start[u]:start[u+1]]) || !slices.Equal(uprob, prob[start[u]:start[u+1]]) {
			t.Fatalf("trial %d: patched row %v %v, NewCSR(edited clone) %v %v", trial, udst, uprob, dst[start[u]:start[u+1]], prob[start[u]:start[u+1]])
		}
	}
}

func TestCSRRowPatchDangling(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	g := randomGraph(rng, 8, 20)
	u := NodeID(0)
	p := NewCSR(g).WithOutRow(u, nil, 0)
	if len(p.OutSlice(u)) != 0 || len(p.OutProbs(u)) != 0 || p.OutWeightSum(u) != 0 {
		t.Fatal("empty patch should make the node dangling")
	}
	// Other nodes unaffected.
	for v := 1; v < g.NumNodes(); v++ {
		if len(p.OutSlice(NodeID(v))) != g.OutDegree(NodeID(v)) {
			t.Fatalf("node %d degree changed by unrelated patch", v)
		}
	}
}

// TestCSRRowPatchOnPatch: a second patch at the same node replaces the
// first; one at a different node panics, since a snapshot holds one
// patched row.
func TestCSRRowPatchOnPatch(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	g := randomGraph(rng, 8, 30)
	et, _ := g.Types().LookupEdgeType("e")
	rowA := []HalfEdge{{Node: 3, Type: et, Weight: 2}}
	rowB := []HalfEdge{{Node: 4, Type: et, Weight: 5}}
	p := NewCSR(g).WithOutRow(0, rowA, 2)

	same := p.WithOutRow(0, rowB, 5)
	if len(same.OutSlice(0)) != 1 || same.OutSlice(0)[0] != rowB[0] || same.OutWeightSum(0) != 5 {
		t.Fatalf("re-patching node 0 kept the old row: %+v", same.OutSlice(0))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("patching node 1 of a snapshot patched at node 0 must panic")
		}
	}()
	p.WithOutRow(1, rowB, 5)
}

// TestCSRRowPatchIsUnversioned: a row-patched snapshot shares its
// base's arrays but must never answer its base's version — a cache
// keyed on it would serve the base graph's vectors for a counterfactual.
func TestCSRRowPatchIsUnversioned(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	g := randomGraph(rng, 8, 30)
	base := NewCSR(g)
	if _, ok := base.Version(); !ok {
		t.Fatal("a snapshot of a Graph must be versioned")
	}
	p := base.WithOutRow(0, nil, 0)
	if v, ok := p.Version(); ok {
		t.Fatalf("row-patched snapshot reports version %+v", v)
	}
	if _, ok := base.Version(); !ok {
		t.Fatal("patching mutated the base snapshot's version")
	}
}

func TestCSRRowPatchInRowAccessPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	p := NewCSR(randomGraph(rng, 6, 12)).WithOutRow(0, nil, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("InRows of a row-patched snapshot must panic, not answer from the base's arrays")
		}
	}()
	p.InRows()
}

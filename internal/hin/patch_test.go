package hin

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// TestCSRRowPatchMatchesOverlay verifies that patching an overlay's
// edited row into a CSR is observationally identical to the edited
// graph it models, across every View method — and that re-flattening
// the patched snapshot yields a plain one that still agrees.
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

		viewsAgree(t, ref, p)
		viewsAgree(t, g, base) // the shared arrays are untouched
		flat := NewCSR(p)
		if flat == p {
			t.Fatal("NewCSR must re-flatten a row-patched snapshot")
		}
		viewsAgree(t, ref, flat)
		// Same in-row order as flattening the edited graph itself: what
		// keeps a reverse push over either bit-identical.
		fs, fx, fp := flat.InRows()
		ds, dx, dp := NewCSR(ref).InRows()
		if !reflect.DeepEqual(fs, ds) || !reflect.DeepEqual(fx, dx) || !reflect.DeepEqual(fp, dp) {
			t.Fatalf("trial %d: re-flattened in-rows differ from NewCSR(edited clone)", trial)
		}
	}
}

func TestCSRRowPatchDangling(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	g := randomGraph(rng, 8, 20)
	u := NodeID(0)
	p := NewCSR(g).WithOutRow(u, nil, 0)
	if p.OutDegree(u) != 0 || p.OutWeightSum(u) != 0 {
		t.Fatal("empty patch should make the node dangling")
	}
	p.OutEdges(u, func(HalfEdge) bool {
		t.Fatal("dangling patched node yielded an edge")
		return false
	})
	// Other nodes unaffected.
	for v := 1; v < g.NumNodes(); v++ {
		if p.OutDegree(NodeID(v)) != g.OutDegree(NodeID(v)) {
			t.Fatalf("node %d degree changed by unrelated patch", v)
		}
	}
	// In-edges from u must vanish everywhere.
	if _, src, _ := NewCSR(p).InRows(); slices.Contains(src, u) {
		t.Fatal("an in-row still has a lane from the patched-dangling node")
	}
}

func TestCSRRowPatchEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	g := randomGraph(rng, 8, 30)
	u := NodeID(0)
	et, _ := g.Types().LookupEdgeType("e")
	row := []HalfEdge{{Node: 1, Type: et, Weight: 1}, {Node: 2, Type: et, Weight: 1}}
	p := NewCSR(g).WithOutRow(u, row, 2)
	n := 0
	p.OutEdges(u, func(HalfEdge) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d edges", n)
	}
}

// TestCSRRowPatchOnPatch: a second patch at the same node replaces the
// first; one at a different node keeps both (the first is materialized).
func TestCSRRowPatchOnPatch(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	g := randomGraph(rng, 8, 30)
	et, _ := g.Types().LookupEdgeType("e")
	rowA := []HalfEdge{{Node: 3, Type: et, Weight: 2}}
	rowB := []HalfEdge{{Node: 4, Type: et, Weight: 5}}
	p := NewCSR(g).WithOutRow(0, rowA, 2)

	same := p.WithOutRow(0, rowB, 5)
	if same.OutDegree(0) != 1 || same.OutSlice(0)[0] != rowB[0] || same.OutWeightSum(0) != 5 {
		t.Fatalf("re-patching node 0 kept the old row: %+v", same.OutSlice(0))
	}
	other := p.WithOutRow(1, rowB, 5)
	if other.OutSlice(0)[0] != rowA[0] || other.OutWeightSum(0) != 2 {
		t.Fatalf("patching node 1 lost node 0's patch: %+v", other.OutSlice(0))
	}
	if other.OutSlice(1)[0] != rowB[0] || other.OutWeightSum(1) != 5 {
		t.Fatalf("node 1's patch missing: %+v", other.OutSlice(1))
	}
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
	if _, ok := NewCSR(p).Version(); ok {
		t.Fatal("re-flattening must not resurrect a version")
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

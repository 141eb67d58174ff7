package hin

import (
	"fmt"
	"math/rand"
	"testing"
)

// allocGraphs are the two graph sizes the allocation pins compare: a
// count that grows from the first to the second is a per-node or
// per-edge allocation.
func allocGraphs() []*Graph {
	return []*Graph{
		randomGraph(rand.New(rand.NewSource(3)), 100, 400),
		randomGraph(rand.New(rand.NewSource(3)), 2000, 12000),
	}
}

// rowEdit returns one removal and one addition on the row of the first
// node with an out-edge: the edit a Why-Not CHECK builds its
// counterfactual from.
func rowEdit(t *testing.T, g *Graph) (removals, additions []Edge) {
	t.Helper()
	et, _ := g.Types().LookupEdgeType("e")
	for u := range NodeID(g.NumNodes()) {
		out := g.OutEdgesOfType(u, NewEdgeTypeSet())
		if len(out) == 0 {
			continue
		}
		for v := range NodeID(g.NumNodes()) {
			if v != u && !hasEdge(g.out[u], v) {
				return out[:1], []Edge{{From: u, To: v, Type: et, Weight: 0.5}}
			}
		}
	}
	t.Fatal("no editable row")
	return nil, nil
}

// TestNewOverlayAllocs pins a counterfactual build at two allocations —
// the overlay and its copied row — whatever the size of the base graph,
// and a Reset of a built overlay and a MixedRow into a grown buffer at
// none: the Why-Not search rebuilds one row per CHECK.
func TestNewOverlayAllocs(t *testing.T) {
	for _, g := range allocGraphs() {
		removals, additions := rowEdit(t, g)
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := NewOverlay(g, removals, additions); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 2 {
			t.Errorf("NewOverlay on %d nodes allocates %.1f objects, want 2", g.NumNodes(), allocs)
		}
		o, err := NewOverlay(g, removals, additions)
		if err != nil {
			t.Fatal(err)
		}
		row, _ := o.MixedRow(nil, removals[0].From, 0.5)
		allocs = testing.AllocsPerRun(100, func() {
			if err := o.Reset(g, removals, additions); err != nil {
				t.Fatal(err)
			}
			row, _ = o.MixedRow(row, removals[0].From, 0.5)
		})
		if allocs != 0 {
			t.Errorf("Reset and MixedRow on %d nodes allocate %.1f objects, want 0", g.NumNodes(), allocs)
		}
	}
}

// TestNewMixedCSRAllocs pins a β-mixed snapshot build at a small fixed
// number of allocations — its presized arrays — whatever the size of
// the graph: a per-row closure or a growing append in the flattening
// loop would scale with the node count. The bound leaves room for the
// race detector's extra bookkeeping.
func TestNewMixedCSRAllocs(t *testing.T) {
	for _, g := range allocGraphs() {
		t.Run(fmt.Sprint(g.NumNodes()), func(t *testing.T) {
			allocs := testing.AllocsPerRun(10, func() { NewMixedCSR(g, 0.5) })
			if allocs > 16 {
				t.Errorf("NewMixedCSR on %d nodes allocates %.1f objects, want <= 16", g.NumNodes(), allocs)
			}
		})
	}
}

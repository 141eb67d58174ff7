package hin

import (
	"reflect"
	"testing"
)

// editsGraph builds u -> {a,b,c} with distinct weights plus an
// unrelated edge x -> a, so row edits can be checked per node.
func editsGraph(t *testing.T) (*Graph, [5]NodeID) {
	t.Helper()
	g := NewGraph()
	nt := g.Types().NodeType("n")
	u := g.AddNode(nt, "u")
	a := g.AddNode(nt, "a")
	b := g.AddNode(nt, "b")
	c := g.AddNode(nt, "c")
	x := g.AddNode(nt, "x")
	et := g.Types().EdgeType("e")
	for _, e := range []struct {
		from, to NodeID
		w        float64
	}{{u, a, 1}, {u, b, 2}, {u, c, 3}, {x, a, 4}} {
		if err := g.AddEdge(e.from, e.to, et, e.w); err != nil {
			t.Fatal(err)
		}
	}
	return g, [5]NodeID{u, a, b, c, x}
}

func TestRowEditsEmpty(t *testing.T) {
	g, _ := editsGraph(t)
	o, err := NewOverlay(g, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := o.RowEdits(); got != nil {
		t.Fatalf("RowEdits on empty overlay = %v, want nil", got)
	}
}

func TestRowEditsRemoveAddReweight(t *testing.T) {
	g, n := editsGraph(t)
	u, a, b, x := n[0], n[1], n[2], n[4]
	et := g.Types().EdgeType("e")
	// Remove u->a, reweight u->b to 5 (remove + re-add), add u->x at 7,
	// and add x->b at 1 so two rows are edited.
	o, err := NewOverlay(g,
		[]Edge{{From: u, To: a, Type: et, Weight: 1}, {From: u, To: b, Type: et, Weight: 2}},
		[]Edge{{From: u, To: b, Type: et, Weight: 5}, {From: u, To: x, Type: et, Weight: 7}, {From: x, To: b, Type: et, Weight: 1}},
	)
	if err != nil {
		t.Fatal(err)
	}
	edits := o.RowEdits()
	if len(edits) != 2 {
		t.Fatalf("got %d row edits, want 2: %+v", len(edits), edits)
	}
	// u: a removed, b reweighted (remove + re-add counts once), x added.
	want := []RowEdit{{Node: u, Changes: 3}, {Node: x, Changes: 1}}
	if !reflect.DeepEqual(edits, want) {
		t.Errorf("RowEdits = %+v, want %+v", edits, want)
	}
}

func TestRowEditsDeterministic(t *testing.T) {
	g, n := editsGraph(t)
	u, a, _, _, x := n[0], n[1], n[2], n[3], n[4]
	et := g.Types().EdgeType("e")
	removals := []Edge{{From: u, To: a, Type: et, Weight: 1}}
	additions := []Edge{{From: x, To: u, Type: et, Weight: 2}, {From: u, To: x, Type: et, Weight: 3}}
	o1, err := NewOverlay(g, removals, additions)
	if err != nil {
		t.Fatal(err)
	}
	// Same edits, different addition order.
	o2, err := NewOverlay(g, removals, []Edge{additions[1], additions[0]})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(o1.RowEdits(), o2.RowEdits()) {
		t.Errorf("RowEdits order-sensitive:\n %+v\nvs %+v", o1.RowEdits(), o2.RowEdits())
	}
}

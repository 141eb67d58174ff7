package hin

import (
	"strings"
	"testing"
)

func TestEdgeString(t *testing.T) {
	e := Edge{From: 1, To: 2, Type: 3, Weight: 0.5}
	s := e.String()
	for _, want := range []string{"1", "2", "0.5"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Edge.String() = %q missing %q", s, want)
		}
	}
}

func TestInDegree(t *testing.T) {
	g, ids := buildTriangle(t)
	if got := g.InDegree(ids[3]); got != 2 { // c receives from a and b
		t.Fatalf("InDegree(c) = %d, want 2", got)
	}
	if got := g.InDegree(ids[0]); got != 0 {
		t.Fatalf("InDegree(u) = %d, want 0", got)
	}
}

func TestTypeRegistryAccessors(t *testing.T) {
	r := NewTypeRegistry()
	a := r.NodeType("a")
	e := r.EdgeType("x")
	if r.NodeTypeName(a) != "a" || r.EdgeTypeName(e) != "x" {
		t.Fatal("name round trip failed")
	}
	if r.NodeTypeName(99) != "" || r.EdgeTypeName(99) != "" {
		t.Fatal("out-of-range type names should be empty")
	}
	if r.NumNodeTypes() != 1 || r.NumEdgeTypes() != 1 {
		t.Fatal("type counts wrong")
	}
	if _, ok := r.LookupNodeType("missing"); ok {
		t.Fatal("LookupNodeType should miss")
	}
	if _, ok := r.LookupEdgeType("missing"); ok {
		t.Fatal("LookupEdgeType should miss")
	}
	// Registering the same name twice returns the same id.
	if r.NodeType("a") != a || r.EdgeType("x") != e {
		t.Fatal("re-registration changed ids")
	}
}

func TestLabelOutOfRange(t *testing.T) {
	g := NewGraph()
	if g.Label(5) != "" {
		t.Fatal("out-of-range label should be empty")
	}
}

func TestMustValidPanics(t *testing.T) {
	g, _ := buildTriangle(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range node")
		}
	}()
	g.OutDegree(99)
}

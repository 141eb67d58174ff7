package hin

import (
	"bytes"
	"strings"
	"testing"
)

func graphsEquivalent(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.NumNodes() != b.NumNodes() {
		t.Fatalf("node counts differ: %d vs %d", a.NumNodes(), b.NumNodes())
	}
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("edge counts differ: %d vs %d", a.NumEdges(), b.NumEdges())
	}
	for v := 0; v < a.NumNodes(); v++ {
		id := NodeID(v)
		if a.Types().NodeTypeName(a.NodeType(id)) != b.Types().NodeTypeName(b.NodeType(id)) {
			t.Fatalf("node %d type differs", v)
		}
		if a.Label(id) != b.Label(id) {
			t.Fatalf("node %d label differs: %q vs %q", v, a.Label(id), b.Label(id))
		}
		var ae, be []HalfEdge
		a.OutEdges(id, func(h HalfEdge) bool { ae = append(ae, h); return true })
		b.OutEdges(id, func(h HalfEdge) bool { be = append(be, h); return true })
		if len(ae) != len(be) {
			t.Fatalf("node %d out-degree differs", v)
		}
		for i := range ae {
			if ae[i].Node != be[i].Node || ae[i].Weight != be[i].Weight {
				t.Fatalf("node %d edge %d differs: %+v vs %+v", v, i, ae[i], be[i])
			}
			if a.Types().EdgeTypeName(ae[i].Type) != b.Types().EdgeTypeName(be[i].Type) {
				t.Fatalf("node %d edge %d type name differs", v, i)
			}
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g, _ := buildTriangle(t)
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	graphsEquivalent(t, g, got)
}

func TestReadJSONRejectsSparseIDs(t *testing.T) {
	in := `{"nodes":[{"id":1,"type":"x"}],"edges":[]}`
	if _, err := ReadJSON(strings.NewReader(in)); err == nil {
		t.Fatal("expected error for non-dense node ids")
	}
}

func TestReadJSONRejectsBadEdges(t *testing.T) {
	in := `{"nodes":[{"id":0,"type":"x"},{"id":1,"type":"x"}],
	        "edges":[{"from":0,"to":9,"type":"e","weight":1}]}`
	if _, err := ReadJSON(strings.NewReader(in)); err == nil {
		t.Fatal("expected error for dangling edge")
	}
	in = `{"nodes":[{"id":0,"type":"x"},{"id":1,"type":"x"}],
	       "edges":[{"from":0,"to":1,"type":"e","weight":-2}]}`
	if _, err := ReadJSON(strings.NewReader(in)); err == nil {
		t.Fatal("expected error for negative weight")
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("not json")); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestDegreeStats(t *testing.T) {
	g, _ := buildTriangle(t)
	rows := DegreeStats(g)
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	// Rows sorted by type name: category, item, user.
	if rows[0].TypeName != "category" || rows[1].TypeName != "item" || rows[2].TypeName != "user" {
		t.Fatalf("unexpected row order: %+v", rows)
	}
	if rows[2].NumNodes != 1 || rows[2].AvgDegree != 2 {
		t.Fatalf("user row wrong: %+v", rows[2])
	}
	if rows[1].NumNodes != 2 || rows[1].AvgDegree != 1 || rows[1].DegreeStd != 0 {
		t.Fatalf("item row wrong: %+v", rows[1])
	}
	if rows[0].AvgDegree != 0 { // category c has no out-edges
		t.Fatalf("category row wrong: %+v", rows[0])
	}
	out := FormatDegreeStats(rows)
	for _, want := range []string{"Node Type", "category", "item", "user"} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted stats missing %q:\n%s", want, out)
		}
	}
}

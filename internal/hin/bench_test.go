package hin

import (
	"math/rand"
	"testing"
)

func benchRandomGraph(b *testing.B, nodes, edges int) *Graph {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(rng, nodes, edges)
	return g
}

func BenchmarkAddEdge(b *testing.B) {
	g := NewGraph()
	nt := g.Types().NodeType("n")
	et := g.Types().EdgeType("e")
	n := 1 << 12
	for i := 0; i < n; i++ {
		g.AddNode(nt, "")
	}
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := NodeID(rng.Intn(n))
		to := NodeID(rng.Intn(n))
		if from == to {
			continue
		}
		// Ignore duplicate errors: they exercise the same lookup path.
		_ = g.AddEdge(from, to, et, 1)
	}
}

func BenchmarkOverlayBuild(b *testing.B) {
	g := benchRandomGraph(b, 2000, 12000)
	u := NodeID(7)
	edges := g.OutEdgesOfType(u, NewEdgeTypeSet())
	if len(edges) == 0 {
		b.Skip("node 7 has no edges in this seed")
	}
	et, _ := g.Types().LookupEdgeType("e")
	additions := []Edge{{From: u, To: NodeID(1999), Type: et, Weight: 0.5}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewOverlay(g, edges[:1], additions); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCSRBuild(b *testing.B) {
	g := benchRandomGraph(b, 5000, 30000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewCSR(g)
	}
}

func BenchmarkCSRTraversal(b *testing.B) {
	g := benchRandomGraph(b, 5000, 30000)
	c := NewCSR(g)
	b.Run("slice", func(b *testing.B) {
		sum := 0.0
		for i := 0; i < b.N; i++ {
			for _, h := range c.OutSlice(NodeID(i % 5000)) {
				sum += h.Weight
			}
		}
		_ = sum
	})
}

func BenchmarkDegreeStats(b *testing.B) {
	g := benchRandomGraph(b, 5000, 30000)
	for i := 0; i < b.N; i++ {
		if rows := DegreeStats(g); len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkClone(b *testing.B) {
	g := benchRandomGraph(b, 2000, 12000)
	for i := 0; i < b.N; i++ {
		g.Clone()
	}
}

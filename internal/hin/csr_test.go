package hin

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func viewsAgree(t *testing.T, a, b View) {
	t.Helper()
	if a.NumNodes() != b.NumNodes() {
		t.Fatalf("node counts differ: %d vs %d", a.NumNodes(), b.NumNodes())
	}
	for v := 0; v < a.NumNodes(); v++ {
		id := NodeID(v)
		if a.NodeType(id) != b.NodeType(id) {
			t.Fatalf("node %d type differs", v)
		}
		if a.OutDegree(id) != b.OutDegree(id) {
			t.Fatalf("node %d out-degree differs: %d vs %d", v, a.OutDegree(id), b.OutDegree(id))
		}
		if math.Abs(a.OutWeightSum(id)-b.OutWeightSum(id)) > 1e-12 {
			t.Fatalf("node %d weight sum differs", v)
		}
		var ae, be []HalfEdge
		a.OutEdges(id, func(h HalfEdge) bool { ae = append(ae, h); return true })
		b.OutEdges(id, func(h HalfEdge) bool { be = append(be, h); return true })
		if len(ae) != len(be) {
			t.Fatalf("node %d out lists differ in length", v)
		}
		for i := range ae {
			if ae[i] != be[i] {
				t.Fatalf("node %d out edge %d differs: %+v vs %+v", v, i, ae[i], be[i])
			}
		}
		ae, be = nil, nil
		a.InEdges(id, func(h HalfEdge) bool { ae = append(ae, h); return true })
		b.InEdges(id, func(h HalfEdge) bool { be = append(be, h); return true })
		if len(ae) != len(be) {
			t.Fatalf("node %d in lists differ in length: %d vs %d", v, len(ae), len(be))
		}
		for w := 0; w < a.NumNodes(); w++ {
			if a.HasEdge(id, NodeID(w)) != b.HasEdge(id, NodeID(w)) {
				t.Fatalf("HasEdge(%d,%d) disagrees", v, w)
			}
		}
	}
}

func TestCSRMatchesGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(rng, 3+rng.Intn(20), rng.Intn(80))
		viewsAgree(t, g, NewCSR(g))
	}
}

func TestCSRMatchesOverlay(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	g := randomGraph(rng, 12, 50)
	et, _ := g.Types().LookupEdgeType("e")
	var removals []Edge
	for v := 0; v < g.NumNodes(); v++ {
		for _, e := range g.OutEdgesOfType(NodeID(v), NewEdgeTypeSet()) {
			if rng.Float64() < 0.25 {
				removals = append(removals, e)
			}
		}
	}
	additions := []Edge{}
	for i := 0; i < 4; i++ {
		a, b := NodeID(rng.Intn(12)), NodeID(rng.Intn(12))
		if a == b {
			continue
		}
		if _, ok := g.EdgeWeight(a, b, et); ok {
			continue
		}
		dup := false
		for _, e := range additions {
			if e.From == a && e.To == b {
				dup = true
			}
		}
		if !dup {
			additions = append(additions, Edge{From: a, To: b, Type: et, Weight: 0.5})
		}
	}
	o, err := NewOverlay(g, removals, additions)
	if err != nil {
		t.Fatal(err)
	}
	viewsAgree(t, o, NewCSR(o))
}

func TestCSRIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	g := randomGraph(rng, 6, 12)
	c := NewCSR(g)
	if NewCSR(c) != c {
		t.Fatal("NewCSR of a CSR should return it unchanged")
	}
}

func TestCSRSlicesMatchIteration(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	g := randomGraph(rng, 10, 40)
	c := NewCSR(g)
	for v := 0; v < c.NumNodes(); v++ {
		id := NodeID(v)
		if len(c.OutSlice(id)) != c.OutDegree(id) {
			t.Fatalf("OutSlice(%d) length mismatch", v)
		}
		i := 0
		c.OutEdges(id, func(h HalfEdge) bool {
			if c.OutSlice(id)[i] != h {
				t.Fatalf("OutSlice(%d)[%d] mismatch", v, i)
			}
			i++
			return true
		})
		start, src, prob := c.InRows()
		at := start[v]
		c.InEdges(id, func(h HalfEdge) bool {
			if src[at] != h.Node || prob[at] != h.Weight/c.OutWeightSum(h.Node) {
				t.Fatalf("InRows entry %d of node %d: (%d, %g) against in-edge %+v", at-start[v], v, src[at], prob[at], h)
			}
			at++
			return true
		})
		// The row is padded to a multiple of InLanes: pad lanes follow
		// the real ones with probability 0 and a scratch source past n.
		if start[v]%InLanes != 0 || at > start[v+1] || start[v+1]-at >= InLanes {
			t.Fatalf("InRows(%d): %d real lanes in [%d, %d), want the row padded to a multiple of %d", v, at-start[v], start[v], start[v+1], InLanes)
		}
		for ; at < start[v+1]; at++ {
			if src[at] != NodeID(c.NumNodes()+int(at)%InLanes) || prob[at] != 0 {
				t.Fatalf("InRows(%d) pad lane %d: (%d, %g)", v, at, src[at], prob[at])
			}
		}
	}
}

func TestCSREarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	g := randomGraph(rng, 8, 40)
	c := NewCSR(g)
	for v := 0; v < c.NumNodes(); v++ {
		if c.OutDegree(NodeID(v)) < 2 {
			continue
		}
		n := 0
		c.OutEdges(NodeID(v), func(HalfEdge) bool { n++; return false })
		if n != 1 {
			t.Fatalf("early stop failed: saw %d edges", n)
		}
		return
	}
}

// TestCSRInRowsInvariantPanics: the check NewCSR runs over its in-rows
// refuses each way the padded layout can break — a source at or past
// n+InLanes, a row starting off a lane boundary, arrays whose length is
// not a whole number of lanes — since the reverse push kernel walks
// them without bounds checks.
func TestCSRInRowsInvariantPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	c := NewCSR(randomGraph(rng, 10, 40))
	n := c.NumNodes()
	for name, corrupt := range map[string]func(b *CSR){
		"source past the scratch slots": func(b *CSR) { b.inSrc[len(b.inSrc)-1] = NodeID(n + InLanes) },
		"negative source":               func(b *CSR) { b.inSrc[0] = -1 },
		"row off a lane boundary":       func(b *CSR) { b.inStart[n/2]++ },
		"ragged arrays": func(b *CSR) {
			b.inSrc, b.inProb = append(b.inSrc, 0), append(b.inProb, 0)
		},
	} {
		b := *c
		b.inStart, b.inSrc, b.inProb = slices.Clone(c.inStart), slices.Clone(c.inSrc), slices.Clone(c.inProb)
		corrupt(&b)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: the in-row check did not panic", name)
				}
			}()
			b.checkInRows()
		}()
	}
	c.checkInRows() // the original is untouched and passes
}

package hin

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// csrMatches fails unless c presents g's nodes and out-rows: every
// out-row in g's order and every out-weight sum.
func csrMatches(t *testing.T, g *Graph, c *CSR) {
	t.Helper()
	if g.NumNodes() != c.NumNodes() {
		t.Fatalf("node counts differ: %d vs %d", g.NumNodes(), c.NumNodes())
	}
	for v := range NodeID(g.NumNodes()) {
		if math.Abs(g.OutWeightSum(v)-c.OutWeightSum(v)) > 1e-12 {
			t.Fatalf("node %d weight sum differs", v)
		}
		if !edgesEqual(g, v, c.OutSlice(v)) {
			t.Fatalf("node %d out-row differs: %+v vs %+v", v, g.out[v], c.OutSlice(v))
		}
	}
}

func TestCSRMatchesGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(rng, 3+rng.Intn(20), rng.Intn(80))
		csrMatches(t, g, NewCSR(g))
	}
}

func TestCSRMatchesOverlay(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	g := randomGraph(rng, 12, 50)
	et, _ := g.Types().LookupEdgeType("e")
	// One overlay per edited row, patched into the snapshot; the
	// reference applies the same edits to a clone.
	for v := range NodeID(g.NumNodes()) {
		rm, add := randomRowEdits(rng, g, v, et, 0.25, 1)
		o, err := NewOverlay(g, rm, add)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := cloneWithEdits(g, rm, add)
		if err != nil {
			t.Fatal(err)
		}
		csrMatches(t, ref, patched(g, o, v))
	}
}

// TestCSRIdempotent: flattening one graph state twice yields equal
// snapshots, version included — what lets a cache key name the state
// rather than the snapshot value.
func TestCSRIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	g := randomGraph(rng, 6, 12)
	if a, b := NewMixedCSR(g, 0.5), NewMixedCSR(g, 0.5); a == b || !reflect.DeepEqual(a, b) {
		t.Fatal("two flattens of one graph state differ")
	}
}

func TestCSRSlicesMatchIteration(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	g := randomGraph(rng, 10, 40)
	c := NewCSR(g)
	// Each node's in-edges as InRows lists them: sources ascending, a
	// source's edges in its out-row's order.
	in := make([][]HalfEdge, c.NumNodes())
	for v := range NodeID(c.NumNodes()) {
		for _, h := range c.OutSlice(v) {
			in[h.Node] = append(in[h.Node], HalfEdge{Node: v, Type: h.Type, Weight: h.Weight})
		}
	}
	for v := 0; v < c.NumNodes(); v++ {
		checkOutRow(t, c, v)
		start, src, prob := c.InRows()
		at := start[v]
		for _, h := range in[v] {
			if src[at] != h.Node || prob[at] != h.Weight/c.OutWeightSum(h.Node) {
				t.Fatalf("InRows entry %d of node %d: (%d, %g) against in-edge %+v", at-start[v], v, src[at], prob[at], h)
			}
			at++
		}
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
	// Under a row patch the patched node's out-row is its own, with the
	// patch's weight sum, and every other row is the base's.
	row := []HalfEdge{{Node: 0, Weight: 0.5}, {Node: 7, Weight: 2}, {Node: 9, Weight: 1.25}, {Node: 1, Weight: 3}, {Node: 2, Weight: 0.75}}
	p := c.WithOutRow(3, row, 7.5)
	for v := 0; v < p.NumNodes(); v++ {
		checkOutRow(t, p, v)
	}
}

// checkOutRow fails unless v's padded out-row (the patched row for a
// patched node) holds OutSlice's targets in order with probability
// w/Σw, then pad lanes of probability 0 pointing past n.
func checkOutRow(t *testing.T, c *CSR, v int) {
	t.Helper()
	start, dst, prob := c.OutRows()
	lo, hi := start[v], start[v+1]
	if u, udst, uprob := c.PatchedRow(); u == NodeID(v) {
		dst, prob, lo, hi = udst, uprob, 0, int32(len(udst))
	}
	row := c.OutSlice(NodeID(v))
	if lo%InLanes != 0 || hi-lo != (int32(len(row))+InLanes-1)/InLanes*InLanes {
		t.Fatalf("OutRows(%d): lanes [%d, %d) for %d edges, want the row padded to a multiple of %d", v, lo, hi, len(row), InLanes)
	}
	for i, h := range row {
		if at := lo + int32(i); dst[at] != h.Node || prob[at] != h.Weight/c.OutWeightSum(NodeID(v)) {
			t.Fatalf("OutRows(%d) lane %d: (%d, %g) against out-edge %+v", v, i, dst[at], prob[at], h)
		}
	}
	for at := lo + int32(len(row)); at < hi; at++ {
		if dst[at] != NodeID(c.NumNodes()+int(at)%InLanes) || prob[at] != 0 {
			t.Fatalf("OutRows(%d) pad lane %d: (%d, %g)", v, at, dst[at], prob[at])
		}
	}
}

// TestCSRInRowsInvariantPanics: the check NewCSR runs over its in-rows
// refuses each way the padded layout can break — a source at or past
// n+InLanes, a row starting off a lane boundary, arrays whose length is
// not a whole number of lanes — since the reverse push kernel walks
// them without bounds checks.
func TestCSRInRowsInvariantPanics(t *testing.T) {
	checkRowsPanic(t, "in-row", func(b *CSR) (*[]int32, *[]NodeID, *[]float64) {
		return &b.inStart, &b.inSrc, &b.inProb
	})
}

// TestCSROutRowsInvariantPanics is TestCSRInRowsInvariantPanics for the
// padded out-rows the forward push kernel walks without bounds checks.
// A patched row is checked as WithOutRow builds it.
func TestCSROutRowsInvariantPanics(t *testing.T) {
	checkRowsPanic(t, "out-row", func(b *CSR) (*[]int32, *[]NodeID, *[]float64) {
		return &b.rowStart, &b.rowDst, &b.rowProb
	})
	c := NewCSR(randomGraph(rand.New(rand.NewSource(37)), 10, 40))
	for _, x := range []NodeID{-1, NodeID(c.NumNodes())} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WithOutRow accepted an edge to node %d of %d", x, c.NumNodes())
				}
			}()
			c.WithOutRow(0, []HalfEdge{{Node: 1, Weight: 1}, {Node: x, Weight: 1}}, 2)
		}()
	}
}

// checkRowsPanic corrupts one row kind of a copy of a snapshot, picked
// by rows, in each way the padded layout can break, and fails unless
// checkRows panics on each copy and passes on the original.
func checkRowsPanic(t *testing.T, kind string, rows func(b *CSR) (*[]int32, *[]NodeID, *[]float64)) {
	t.Helper()
	rng := rand.New(rand.NewSource(36))
	c := NewCSR(randomGraph(rng, 10, 40))
	n := c.NumNodes()
	for name, corrupt := range map[string]func(start *[]int32, node *[]NodeID, prob *[]float64){
		"node past the scratch slots": func(_ *[]int32, node *[]NodeID, _ *[]float64) { (*node)[len(*node)-1] = NodeID(n + InLanes) },
		"negative node":               func(_ *[]int32, node *[]NodeID, _ *[]float64) { (*node)[0] = -1 },
		"row off a lane boundary":     func(start *[]int32, _ *[]NodeID, _ *[]float64) { (*start)[n/2]++ },
		"ragged arrays": func(_ *[]int32, node *[]NodeID, prob *[]float64) {
			*node, *prob = append(*node, 0), append(*prob, 0)
		},
	} {
		b := *c
		start, node, prob := rows(&b)
		*start, *node, *prob = slices.Clone(*start), slices.Clone(*node), slices.Clone(*prob)
		corrupt(start, node, prob)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: the %s check did not panic", name, kind)
				}
			}()
			b.checkRows()
		}()
	}
	c.checkRows() // the original is untouched and passes
}

// TestCSRInEdgesParallelTypes: a source's parallel typed edges to one
// target take one in-row lane each, with its own transition
// probability, and rewriting the source's row replaces its lanes.
func TestCSRInEdgesParallelTypes(t *testing.T) {
	g := NewGraph()
	nt := g.Types().NodeType("n")
	a, b := g.Types().EdgeType("a"), g.Types().EdgeType("b")
	for range 4 {
		g.AddNode(nt, "")
	}
	for _, e := range []Edge{{0, 1, a, 1}, {0, 1, b, 2}, {2, 1, a, 3}, {3, 1, b, 4}, {3, 1, a, 5}, {1, 0, a, 6}} {
		if err := g.AddEdge(e.From, e.To, e.Type, e.Weight); err != nil {
			t.Fatal(err)
		}
	}
	check := func(name string, c *CSR, x NodeID, wantSrc []NodeID, wantProb []float64) {
		t.Helper()
		start, src, prob := c.InRows()
		end := start[x]
		for end < start[x+1] && int(src[end]) < c.NumNodes() {
			end++
		}
		if !slices.Equal(src[start[x]:end], wantSrc) || !slices.Equal(prob[start[x]:end], wantProb) {
			t.Fatalf("%s: in-row of %d = %v %v, want %v %v", name, x, src[start[x]:end], prob[start[x]:end], wantSrc, wantProb)
		}
	}
	c := NewCSR(g)
	check("graph", c, 1, []NodeID{0, 0, 2, 3, 3}, []float64{1.0 / 3, 2.0 / 3, 1, 4.0 / 9, 5.0 / 9})
	check("graph", c, 0, []NodeID{1}, []float64{1})
	ed, err := cloneWithEdits(g, []Edge{{3, 1, b, 4}, {3, 1, a, 5}}, []Edge{{3, 1, a, 7}, {3, 0, b, 8}})
	if err != nil {
		t.Fatal(err)
	}
	p := NewCSR(ed)
	check("edited", p, 1, []NodeID{0, 0, 2, 3}, []float64{1.0 / 3, 2.0 / 3, 1, 7.0 / 15})
	check("edited", p, 0, []NodeID{1, 3}, []float64{1, 8.0 / 15})
}

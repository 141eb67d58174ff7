package hin

import (
	"bytes"
	"math"
	"slices"
	"testing"
)

// FuzzReadJSON checks the JSON parser never panics and that any graph
// it accepts round-trips: write → read → write reproduces the bytes.
func FuzzReadJSON(f *testing.F) {
	f.Add([]byte(`{"nodes":[{"id":0,"type":"user","label":"alice"},{"id":1,"type":"item"}],"edges":[{"from":0,"to":1,"type":"rated","weight":0.8}]}`))
	f.Add([]byte(`{"nodes":[],"edges":[]}`))
	f.Add([]byte(`{"nodes":[{"id":1,"type":"user"}]}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := g.WriteJSON(&first); err != nil {
			t.Fatalf("WriteJSON on accepted graph: %v", err)
		}
		g2, err := ReadJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-reading own JSON output: %v\noutput:\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := g2.WriteJSON(&second); err != nil {
			t.Fatalf("WriteJSON on round-tripped graph: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Errorf("JSON round trip not stable\nfirst:\n%s\nsecond:\n%s", first.Bytes(), second.Bytes())
		}
	})
}

// fuzzBaseGraph builds the small fixed graph FuzzOverlayMatchesGraph
// edits: six nodes, a rated edge between every pair of odd sum.
func fuzzBaseGraph() (*Graph, EdgeTypeID, EdgeTypeID) {
	g := NewGraph()
	user := g.Types().NodeType("user")
	rated := g.Types().EdgeType("rated")
	similar := g.Types().EdgeType("similar")
	for i := 0; i < 6; i++ {
		g.AddNode(user, "")
	}
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if i == j || (i+j)%2 == 0 {
				continue
			}
			_ = g.AddEdge(NodeID(i), NodeID(j), rated, float64(i+j)/10+0.1)
		}
	}
	return g, rated, similar
}

// decodeRowEdits derives removal/addition lists of one source row from
// fuzz bytes: the first byte picks the row, then four bytes per edit.
// The edits are not necessarily valid — NewOverlay's error paths are
// part of the surface under test — and a quarter of the weights are 0,
// NaN or ±Inf.
func decodeRowEdits(rated, similar EdgeTypeID, data []byte) (removals, additions []Edge) {
	if len(data) == 0 {
		return nil, nil
	}
	from := NodeID(data[0] % 7) // 6 is deliberately out of range
	types := []EdgeTypeID{rated, similar}
	for i := 1; i+4 <= len(data); i += 4 {
		e := Edge{From: from, To: NodeID(data[i+1] % 7), Type: types[data[i+2]%2]}
		switch b := data[i+3]; b % 16 {
		case 0:
			e.Weight = 0
		case 1:
			e.Weight = math.NaN()
		case 2:
			e.Weight = math.Inf(1)
		case 3:
			e.Weight = math.Inf(-1)
		default:
			e.Weight = float64(b) / 10
		}
		if data[i]%2 == 0 {
			removals = append(removals, e)
		} else {
			additions = append(additions, e)
		}
	}
	return removals, additions
}

// FuzzOverlayMatchesGraph holds NewOverlay to the edited-clone
// reference (cloneWithEdits) on one source row: it accepts exactly the
// edit lists the reference accepts, in any order, and an accepted
// overlay reads the reference's rows edge for edge with its out-weight
// sums to 1e-12 relative. Mixed at β ∈ {1, 0.5}, every row equals the
// reference snapshot's (NewMixedCSR) bit for bit, sums included: the
// row the rival gate reads is the row a cold CHECK drains.
func FuzzOverlayMatchesGraph(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 0, 5})
	f.Add([]byte{1, 1, 2, 0, 9, 1, 0, 1, 17})
	f.Add([]byte{0, 0, 1, 0, 0, 1, 1, 0, 20})
	// Row 0 emptied (0.2, 0.4 and 0.6 leave a 2e-16 residue), then an
	// edge added: the sum must restart from 0 as RemoveEdge's does.
	f.Add([]byte{0, 0, 1, 0, 4, 0, 3, 0, 4, 0, 5, 0, 4, 1, 2, 0, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, rated, similar := fuzzBaseGraph()
		removals, additions := decodeRowEdits(rated, similar, data)

		reversed := func(in []Edge) []Edge {
			out := slices.Clone(in)
			slices.Reverse(out)
			return out
		}
		o, err := NewOverlay(g, removals, additions)
		_, errRev := NewOverlay(g, reversed(removals), reversed(additions))
		ref, errRef := cloneWithEdits(g, removals, additions)
		if (err == nil) != (errRef == nil) {
			t.Fatalf("overlay err = %v, reference err = %v", err, errRef)
		}
		if (err == nil) != (errRev == nil) {
			t.Fatalf("acceptance depends on edit order: forward err = %v, reversed err = %v", err, errRev)
		}
		if err != nil {
			return
		}
		for v := range NodeID(g.NumNodes()) {
			var want []HalfEdge
			ref.OutEdges(v, func(h HalfEdge) bool { want = append(want, h); return true })
			got, sum := o.MixedRow(nil, v, 1)
			if !slices.Equal(got, want) {
				t.Fatalf("row %d: overlay %v, reference %v", v, got, want)
			}
			if b := ref.OutWeightSum(v); math.Abs(sum-b) > 1e-12*math.Max(math.Abs(sum), math.Abs(b)) {
				t.Fatalf("row %d: overlay sum %g, reference %g", v, sum, b)
			}
		}
		for _, beta := range []float64{1, 0.5} {
			flat := NewMixedCSR(ref, beta)
			for v := range NodeID(g.NumNodes()) {
				got, sum := o.MixedRow(nil, v, beta)
				want, wantSum := flat.OutSlice(v), flat.OutWeightSum(v)
				if len(got) != len(want) || math.Float64bits(sum) != math.Float64bits(wantSum) {
					t.Fatalf("β=%g row %d: overlay %v (sum %g), reference snapshot %v (sum %g)", beta, v, got, sum, want, wantSum)
				}
				for i := range got {
					if got[i].Node != want[i].Node || got[i].Type != want[i].Type || math.Float64bits(got[i].Weight) != math.Float64bits(want[i].Weight) {
						t.Fatalf("β=%g row %d edge %d: overlay %+v, reference snapshot %+v", beta, v, i, got[i], want[i])
					}
				}
			}
		}
	})
}

// FuzzGraphOps runs random sequences of AddEdge, AddBidirectional,
// RemoveEdge, AddNode and Reserve, four bytes per operation, over a few
// nodes and three edge types, so duplicates and parallel typed edges
// are common. Every mutation must succeed exactly when a model of the
// typed edge set says it should, and after each operation Validate must
// pass and a change of the node/edge state (graphState) must have moved
// Version.
func FuzzGraphOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 0, 0, 0, 1, 1, 2, 0, 1, 0})             // parallel typed edges, then remove one
	f.Add([]byte{1, 1, 2, 0, 1, 1, 2, 0, 0, 2, 1, 0})             // bidirectional pair, its duplicate, a reverse duplicate
	f.Add([]byte{4, 3, 2, 1, 3, 0, 0, 0, 0, 4, 1, 2, 0, 1, 4, 2}) // Reserve, AddNode, then edges into the room
	f.Fuzz(func(t *testing.T, data []byte) {
		data = data[:min(len(data), 4*64)] // 64 operations are plenty for 8 nodes
		g := NewGraph()
		nt := g.Types().NodeType("n")
		types := []EdgeTypeID{g.Types().EdgeType("a"), g.Types().EdgeType("b"), g.Types().EdgeType("c")}
		for range 3 {
			g.AddNode(nt, "")
		}
		type typedKey struct {
			from, to NodeID
			typ      EdgeTypeID
		}
		model := make(map[typedKey]bool)
		addable := func(k typedKey) bool {
			return k.from != k.to && int(k.from) < g.NumNodes() && int(k.to) < g.NumNodes() && !model[k]
		}
		for i := 0; i+4 <= len(data); i += 4 {
			op := data[i] % 5
			// One ID past the last node probes the range checks.
			from := NodeID(int(data[i+1]) % (g.NumNodes() + 1))
			to := NodeID(int(data[i+2]) % (g.NumNodes() + 1))
			typ := types[data[i+3]%3]
			w := float64(data[i+3]%7+1) / 4
			k, rk := typedKey{from, to, typ}, typedKey{to, from, typ}
			state, ver := graphState(g), g.Version()
			switch op {
			case 0:
				want := addable(k)
				if err := g.AddEdge(from, to, typ, w); (err == nil) != want {
					t.Fatalf("op %d: AddEdge(%d,%d,%d) = %v, want success %v", i/4, from, to, typ, err, want)
				}
				if want {
					model[k] = true
				}
			case 1:
				want := addable(k) && addable(rk)
				if err := g.AddBidirectional(from, to, typ, w); (err == nil) != want {
					t.Fatalf("op %d: AddBidirectional(%d,%d,%d) = %v, want success %v", i/4, from, to, typ, err, want)
				}
				if want {
					model[k], model[rk] = true, true
				}
			case 2:
				want := model[k]
				delete(model, k)
				if err := g.RemoveEdge(from, to, typ); (err == nil) != want {
					t.Fatalf("op %d: RemoveEdge(%d,%d,%d) = %v, want success %v", i/4, from, to, typ, err, want)
				}
			case 3:
				if g.NumNodes() < 8 { // keeps the all-pairs check small
					g.AddNode(nt, "")
				}
			case 4:
				n := g.NumNodes()
				outDeg, inDeg := make([]int, n), make([]int, n)
				for v := range n {
					outDeg[v], inDeg[v] = int(data[i+2]%4), int(data[i+3]%4)
				}
				g.Reserve(outDeg, inDeg)
			}
			// Whether the op succeeded or failed, changed state needs a
			// fresh stamp: a cache keyed by the old one would go stale.
			if graphState(g) != state && g.Version() == ver {
				t.Fatalf("op %d: changed the node/edge state without moving Version off %v", i/4, ver)
			}
			if g.NumEdges() != len(model) {
				t.Fatalf("op %d: %d edges, model holds %d", i/4, g.NumEdges(), len(model))
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("op %d: %v", i/4, err)
			}
		}
	})
}

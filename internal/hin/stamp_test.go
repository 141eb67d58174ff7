package hin

import (
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

// graphState dumps the node/edge state a Graph's version stamp vouches
// for: every node's type and label, and its out-row in order with edge
// types and weight bits. The type registry is not part of it.
func graphState(g *Graph) string {
	var s strings.Builder
	for v := range g.ntype {
		fmt.Fprintf(&s, "%d %d %q:", v, g.ntype[v], g.labels[v])
		for _, h := range g.out[v] {
			fmt.Fprintf(&s, " %d/%d/%x", h.Node, h.Type, math.Float64bits(h.Weight))
		}
		s.WriteByte('\n')
	}
	return s.String()
}

// stampFixture builds users 0, 1, items 2, 3, 4 and the user "x" (5),
// with rated pairs 0↔2, 0↔3, 1↔3 and the one-way edge 4→0.
func stampFixture(t *testing.T) (g *Graph, rated, similar EdgeTypeID) {
	t.Helper()
	g, rated = versionFixture(t)
	similar = g.Types().EdgeType("similar")
	g.AddNode(g.Types().NodeType("user"), "x")
	if err := g.AddEdge(4, 0, rated, 1); err != nil {
		t.Fatal(err)
	}
	return g, rated, similar
}

// tryCall runs fn on g and reports whether it panicked.
func tryCall(g *Graph, fn func(*Graph) error) (panicked bool, err error) {
	defer func() { panicked = recover() != nil }()
	return false, fn(g)
}

// TestGraphMutatorsBumpVersion holds every exported method of *Graph to
// the stamp contract of Version. A mutator call that changes the
// node/edge state moves the graph to a fresh version, on its success
// path and on each of its error paths; a successful mutator call moves
// it even when no content changes (Reserve). A reader leaves both the
// state and the version alone. Each method must be listed exactly once,
// as a reader or as a mutator, so a method added later fails the test
// until it is classified.
func TestGraphMutatorsBumpVersion(t *testing.T) {
	_, rated, similar := stampFixture(t)
	type call struct {
		path   string
		fn     func(g *Graph) error
		want   error // the error the path returns; nil on success
		panics bool
	}
	addEdge := func(from, to NodeID, typ EdgeTypeID, w float64) func(*Graph) error {
		return func(g *Graph) error { return g.AddEdge(from, to, typ, w) }
	}
	addPair := func(a, b NodeID) func(*Graph) error {
		return func(g *Graph) error { return g.AddBidirectional(a, b, rated, 1) }
	}
	removeEdge := func(from, to NodeID, typ EdgeTypeID) func(*Graph) error {
		return func(g *Graph) error { return g.RemoveEdge(from, to, typ) }
	}
	addNode := func(label string) func(*Graph) error {
		return func(g *Graph) error { g.AddNode(0, label); return nil }
	}
	reserve := func(out, in int) func(*Graph) error {
		return func(g *Graph) error {
			g.Reserve(make([]int, out), make([]int, in))
			return nil
		}
	}
	mutators := []struct {
		method string
		calls  []call
	}{
		{"AddNode", []call{
			{path: "labeled", fn: addNode("y")},
			{path: "unlabeled", fn: addNode("")},
			{path: "duplicate label", fn: addNode("x"), panics: true},
		}},
		{"Reserve", []call{
			{path: "room", fn: reserve(6, 6)},
			{path: "short out-degrees", fn: reserve(5, 6), panics: true},
			{path: "short in-degrees", fn: reserve(6, 5), panics: true},
		}},
		{"AddEdge", []call{
			{path: "new edge", fn: addEdge(1, 2, rated, 0.5)},
			{path: "parallel type", fn: addEdge(0, 2, similar, 2)},
			{path: "source out of range", fn: addEdge(-1, 2, rated, 1), want: ErrNodeOutOfRange},
			{path: "target out of range", fn: addEdge(1, 6, rated, 1), want: ErrNodeOutOfRange},
			{path: "self loop", fn: addEdge(1, 1, rated, 1), want: ErrSelfLoop},
			{path: "zero weight", fn: addEdge(1, 2, rated, 0), want: ErrBadWeight},
			{path: "NaN weight", fn: addEdge(1, 2, rated, math.NaN()), want: ErrBadWeight},
			{path: "infinite weight", fn: addEdge(1, 2, rated, math.Inf(1)), want: ErrBadWeight},
			// 1→3: 1's out-row is the shorter list searched; 0→2: 2's in-row.
			{path: "duplicate found in out-row", fn: addEdge(1, 3, rated, 1), want: ErrDuplicateEdge},
			{path: "duplicate found in in-row", fn: addEdge(0, 2, rated, 1), want: ErrDuplicateEdge},
		}},
		{"AddBidirectional", []call{
			{path: "new pair", fn: addPair(1, 2)},
			{path: "first direction fails", fn: addPair(1, 3), want: ErrDuplicateEdge},
			{path: "second direction fails and rolls back", fn: addPair(0, 4), want: ErrDuplicateEdge},
			{path: "out of range", fn: addPair(0, 6), want: ErrNodeOutOfRange},
		}},
		{"RemoveEdge", []call{
			{path: "existing edge", fn: removeEdge(0, 2, rated)},
			{path: "out of range", fn: removeEdge(0, 6, rated), want: ErrNodeOutOfRange},
			{path: "no such edge", fn: removeEdge(1, 2, rated), want: ErrNoSuchEdge},
			{path: "no such type", fn: removeEdge(0, 2, similar), want: ErrNoSuchEdge},
		}},
	}
	each := func(h HalfEdge) bool { return true }
	readers := []struct {
		method string
		fn     func(g *Graph) error
	}{
		{"Clone", func(g *Graph) error { g.Clone(); return nil }},
		{"EdgeWeight", func(g *Graph) error { g.EdgeWeight(0, 2, rated); return nil }},
		{"InDegree", func(g *Graph) error { g.InDegree(3); return nil }},
		{"InEdges", func(g *Graph) error { g.InEdges(3, each); return nil }},
		{"Label", func(g *Graph) error { g.Label(5); return nil }},
		{"NodeByLabel", func(g *Graph) error { g.NodeByLabel("x"); return nil }},
		{"NodeType", func(g *Graph) error { g.NodeType(0); return nil }},
		{"NumEdges", func(g *Graph) error { g.NumEdges(); return nil }},
		{"NumNodes", func(g *Graph) error { g.NumNodes(); return nil }},
		{"OutDegree", func(g *Graph) error { g.OutDegree(0); return nil }},
		{"OutEdges", func(g *Graph) error { g.OutEdges(0, each); return nil }},
		{"OutEdgesOfType", func(g *Graph) error { g.OutEdgesOfType(0, NewEdgeTypeSet(rated)); return nil }},
		{"OutWeightSum", func(g *Graph) error { g.OutWeightSum(0); return nil }},
		{"Types", func(g *Graph) error { g.Types(); return nil }},
		{"Validate", func(g *Graph) error { return g.Validate() }},
		{"Version", func(g *Graph) error { g.Version(); return nil }},
		{"WriteJSON", func(g *Graph) error { return g.WriteJSON(io.Discard) }},
	}

	listed := map[string]int{}
	for _, m := range mutators {
		listed[m.method]++
	}
	for _, r := range readers {
		listed[r.method]++
	}
	graphType := reflect.TypeOf((*Graph)(nil))
	for i := 0; i < graphType.NumMethod(); i++ {
		name := graphType.Method(i).Name
		if listed[name] != 1 {
			t.Errorf("(*Graph).%s is listed %d times; list it once, as a reader or as a mutator", name, listed[name])
		}
		delete(listed, name)
	}
	for name := range listed {
		t.Errorf("%s is listed but is no exported method of *Graph", name)
	}

	for _, m := range mutators {
		for _, c := range m.calls {
			t.Run(m.method+"/"+c.path, func(t *testing.T) {
				g, _, _ := stampFixture(t)
				state, ver := graphState(g), g.Version()
				panicked, err := tryCall(g, c.fn)
				if panicked != c.panics || !errors.Is(err, c.want) {
					t.Fatalf("took another path: panicked %v, err %v", panicked, err)
				}
				moved := g.Version() != ver
				if graphState(g) != state && !moved {
					t.Errorf("changed the node/edge state without moving Version off %v", ver)
				}
				if !c.panics && c.want == nil && !moved {
					t.Errorf("succeeded without moving Version off %v", ver)
				}
			})
		}
	}
	for _, r := range readers {
		t.Run(r.method, func(t *testing.T) {
			g, _, _ := stampFixture(t)
			state, ver := graphState(g), g.Version()
			if err := r.fn(g); err != nil {
				t.Fatal(err)
			}
			if graphState(g) != state || g.Version() != ver {
				t.Errorf("a reader changed the graph or moved its Version off %v", ver)
			}
		})
	}
}

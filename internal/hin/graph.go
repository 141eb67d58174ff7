package hin

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Graph is a mutable Heterogeneous Information Network: a directed,
// weighted graph in which every node and edge has exactly one type.
// The zero value is not usable; create graphs with NewGraph.
//
// Graph is not safe for concurrent mutation. Concurrent reads are safe
// once mutation has stopped.
type Graph struct {
	types  *TypeRegistry
	ntype  []NodeTypeID
	labels []string
	byName map[string]NodeID

	out [][]HalfEdge
	in  [][]HalfEdge

	outWeight []float64 // cached sum of outgoing weights per node
	numEdges  int

	// version is the globally unique stamp of the graph's current
	// state; every mutating operation assigns a fresh one. See Version.
	version uint64
}

// NewGraph returns an empty graph with a fresh type registry.
func NewGraph() *Graph {
	return &Graph{
		types:   NewTypeRegistry(),
		byName:  make(map[string]NodeID),
		version: nextVersionStamp(),
	}
}

// Version identifies the graph's current state with a process-unique
// stamp. Any mutation (AddNode, AddEdge, RemoveEdge, ...) moves the
// graph to a fresh stamp, so cache entries keyed by an old version can
// never be served against the new state.
func (g *Graph) Version() Version { return Version{Stamp: g.version} }

// bumpVersion moves the graph to a fresh state stamp. Every mutator
// calls it; readers never do (TestGraphMutatorsBumpVersion lists each
// exported method as one or the other).
func (g *Graph) bumpVersion() { g.version = nextVersionStamp() }

// Errors returned by graph mutators and NewOverlay.
var (
	ErrNodeOutOfRange = errors.New("hin: node id out of range")
	ErrBadWeight      = errors.New("hin: edge weight must be positive and finite")
	ErrSelfLoop       = errors.New("hin: self loops are not allowed")
	ErrDuplicateEdge  = errors.New("hin: duplicate typed edge")
	ErrNoSuchEdge     = errors.New("hin: no such edge")
	ErrDuplicateLabel = errors.New("hin: duplicate node label")
	ErrMultiRow       = errors.New("hin: overlay edits span more than one source row")
)

// Types returns the graph's type registry.
func (g *Graph) Types() *TypeRegistry { return g.types }

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.ntype) }

// NumEdges returns the number of directed edges (a bidirectional
// relation stored as two directed edges counts twice).
func (g *Graph) NumEdges() int { return g.numEdges }

// AddNode creates a node of the given type with an optional label and
// returns its ID. Labels must be unique when non-empty; AddNode panics
// on a duplicate label (it indicates a programming error in graph
// construction — use NodeByLabel to resolve existing nodes).
func (g *Graph) AddNode(typ NodeTypeID, label string) NodeID {
	if label != "" {
		if _, exists := g.byName[label]; exists {
			panic(fmt.Sprintf("hin: duplicate node label %q", label))
		}
	}
	id := NodeID(len(g.ntype))
	g.ntype = append(g.ntype, typ)
	g.labels = append(g.labels, label)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.outWeight = append(g.outWeight, 0)
	if label != "" {
		g.byName[label] = id
	}
	g.bumpVersion()
	return id
}

// Reserve presizes the adjacency lists for the edges about to be added,
// so that adding them by AddEdge regrows no list. outDeg and inDeg hold
// one entry per node: node v's out- and in-lists gain room for outDeg[v]
// and inDeg[v] more entries, all cut from one array. The counts are
// room, not promises: a list that outgrows its room grows as before.
// Reserve changes no content; like every mutator it moves the graph to
// a fresh version. It panics unless both slices have NumNodes entries.
func (g *Graph) Reserve(outDeg, inDeg []int) {
	n := len(g.out)
	if len(outDeg) != n || len(inDeg) != n {
		panic(fmt.Sprintf("hin: Reserve with %d out- and %d in-degrees for %d nodes", len(outDeg), len(inDeg), n))
	}
	total := 0
	for v := range n {
		total += len(g.out[v]) + outDeg[v] + len(g.in[v]) + inDeg[v]
	}
	halves := make([]HalfEdge, total)
	cut := func(list []HalfEdge, room int) []HalfEdge {
		c := len(list) + room
		list, halves = append(halves[:0:c], list...), halves[c:]
		return list
	}
	for v := range n {
		g.out[v] = cut(g.out[v], outDeg[v])
		g.in[v] = cut(g.in[v], inDeg[v])
	}
	g.bumpVersion()
}

// NodeByLabel resolves a node by its label. It returns InvalidNode and
// false when no node has that label.
func (g *Graph) NodeByLabel(label string) (NodeID, bool) {
	id, ok := g.byName[label]
	if !ok {
		return InvalidNode, false
	}
	return id, true
}

// Label returns the label of node v ("" when unlabeled).
func (g *Graph) Label(v NodeID) string {
	if !g.valid(v) {
		return ""
	}
	return g.labels[v]
}

// NodeType returns the type of node v. It panics if v is out of range.
func (g *Graph) NodeType(v NodeID) NodeTypeID {
	g.mustValid(v)
	return g.ntype[v]
}

func (g *Graph) valid(v NodeID) bool { return v >= 0 && int(v) < len(g.ntype) }

func (g *Graph) mustValid(v NodeID) {
	if !g.valid(v) {
		panic(fmt.Sprintf("hin: node %d out of range [0,%d)", v, len(g.ntype)))
	}
}

// AddEdge inserts a directed, typed, weighted edge. It returns an error
// when either endpoint is out of range, the weight is not a positive
// finite number, the edge is a self loop, or an edge with the same
// (from, to, type) triple already exists.
func (g *Graph) AddEdge(from, to NodeID, typ EdgeTypeID, weight float64) error {
	if !g.valid(from) || !g.valid(to) {
		return fmt.Errorf("%w: (%d, %d)", ErrNodeOutOfRange, from, to)
	}
	if from == to {
		return fmt.Errorf("%w: node %d", ErrSelfLoop, from)
	}
	if err := checkWeight(weight); err != nil {
		return err
	}
	// A duplicate sits in both from's out-list and to's in-list: search
	// the shorter one, so a hub's edges do not cost its degree each.
	if out, in := g.out[from], g.in[to]; len(out) <= len(in) && hasHalfEdge(out, to, typ) ||
		len(out) > len(in) && hasHalfEdge(in, from, typ) {
		return fmt.Errorf("%w: (%d, %d, type %d)", ErrDuplicateEdge, from, to, typ)
	}
	g.out[from] = append(g.out[from], HalfEdge{Node: to, Type: typ, Weight: weight})
	g.in[to] = append(g.in[to], HalfEdge{Node: from, Type: typ, Weight: weight})
	g.outWeight[from] += weight
	g.numEdges++
	g.bumpVersion()
	return nil
}

// checkWeight rejects an edge weight that is not a positive finite
// number: the one weight rule of AddEdge and NewOverlay.
func checkWeight(w float64) error {
	if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return fmt.Errorf("%w: got %g", ErrBadWeight, w)
	}
	return nil
}

// hasHalfEdge reports whether list holds an entry to or from node of
// type typ.
func hasHalfEdge(list []HalfEdge, node NodeID, typ EdgeTypeID) bool {
	for _, h := range list {
		if h.Node == node && h.Type == typ {
			return true
		}
	}
	return false
}

// AddBidirectional inserts the edge in both directions with the same
// type and weight. The paper's preprocessing treats every relationship
// as bidirectional (§6.1); this helper implements that convention.
func (g *Graph) AddBidirectional(a, b NodeID, typ EdgeTypeID, weight float64) error {
	if err := g.AddEdge(a, b, typ, weight); err != nil {
		return err
	}
	if err := g.AddEdge(b, a, typ, weight); err != nil {
		// Roll back the first direction to keep the pair atomic.
		if rbErr := g.RemoveEdge(a, b, typ); rbErr != nil {
			return errors.Join(err, rbErr)
		}
		return err
	}
	return nil
}

// RemoveEdge deletes the directed edge (from, to, typ). It returns
// ErrNoSuchEdge when the edge does not exist.
func (g *Graph) RemoveEdge(from, to NodeID, typ EdgeTypeID) error {
	if !g.valid(from) || !g.valid(to) {
		return fmt.Errorf("%w: (%d, %d)", ErrNodeOutOfRange, from, to)
	}
	idx := -1
	for i, h := range g.out[from] {
		if h.Node == to && h.Type == typ {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("%w: (%d, %d, type %d)", ErrNoSuchEdge, from, to, typ)
	}
	w := g.out[from][idx].Weight
	g.out[from] = append(g.out[from][:idx], g.out[from][idx+1:]...)
	for i, h := range g.in[to] {
		if h.Node == from && h.Type == typ {
			g.in[to] = append(g.in[to][:i], g.in[to][i+1:]...)
			break
		}
	}
	g.outWeight[from] -= w
	if g.outWeight[from] < 0 || len(g.out[from]) == 0 { // numeric drift guard; an emptied row is dangling
		g.outWeight[from] = 0
	}
	g.numEdges--
	g.bumpVersion()
	return nil
}

// EdgeWeight returns the weight of the typed edge (from, to, typ) and
// whether it exists.
func (g *Graph) EdgeWeight(from, to NodeID, typ EdgeTypeID) (float64, bool) {
	if !g.valid(from) {
		return 0, false
	}
	for _, h := range g.out[from] {
		if h.Node == to && h.Type == typ {
			return h.Weight, true
		}
	}
	return 0, false
}

// OutEdges iterates the outgoing edges of v.
func (g *Graph) OutEdges(v NodeID, yield func(HalfEdge) bool) {
	g.mustValid(v)
	for _, h := range g.out[v] {
		if !yield(h) {
			return
		}
	}
}

// InEdges iterates the incoming edges of v. HalfEdge.Node is the source.
func (g *Graph) InEdges(v NodeID, yield func(HalfEdge) bool) {
	g.mustValid(v)
	for _, h := range g.in[v] {
		if !yield(h) {
			return
		}
	}
}

// OutDegree returns the number of outgoing edges of v.
func (g *Graph) OutDegree(v NodeID) int {
	g.mustValid(v)
	return len(g.out[v])
}

// InDegree returns the number of incoming edges of v.
func (g *Graph) InDegree(v NodeID) int {
	g.mustValid(v)
	return len(g.in[v])
}

// OutWeightSum returns the total outgoing weight of v.
func (g *Graph) OutWeightSum(v NodeID) float64 {
	g.mustValid(v)
	return g.outWeight[v]
}

// OutEdgesOfType returns the outgoing edges of v whose type is allowed
// by the set, as full Edge values rooted at v.
func (g *Graph) OutEdgesOfType(v NodeID, allowed EdgeTypeSet) []Edge {
	g.mustValid(v)
	var edges []Edge
	for _, h := range g.out[v] {
		if allowed.Contains(h.Type) {
			edges = append(edges, Edge{From: v, To: h.Node, Type: h.Type, Weight: h.Weight})
		}
	}
	return edges
}

// Clone returns a deep copy of the graph sharing the type registry.
// Mutating the clone does not affect the original. The registry is
// shared because type IDs must stay consistent between the two graphs;
// registering further types on either graph is visible to both.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		types:     g.types,
		ntype:     append([]NodeTypeID(nil), g.ntype...),
		labels:    append([]string(nil), g.labels...),
		byName:    make(map[string]NodeID, len(g.byName)),
		out:       make([][]HalfEdge, len(g.out)),
		in:        make([][]HalfEdge, len(g.in)),
		outWeight: append([]float64(nil), g.outWeight...),
		numEdges:  g.numEdges,
		// A clone is a distinct mutable state even though its content
		// currently matches the original: giving it a fresh stamp keeps
		// later divergent mutations of the two graphs from ever
		// colliding in a cache.
		version: nextVersionStamp(),
	}
	for k, v := range g.byName {
		c.byName[k] = v
	}
	for i := range g.out {
		c.out[i] = append([]HalfEdge(nil), g.out[i]...)
		c.in[i] = append([]HalfEdge(nil), g.in[i]...)
	}
	return c
}

// Validate checks internal invariants: every out-edge leads to a valid
// node with a positive finite weight, the cached out-weight sums and
// edge count match the out-lists, and each node's in-list holds exactly
// the out-entries that target it — the same (source, type) multiset,
// each with a bit-identical weight. It returns a descriptive error for
// the first violation found.
//
// The out-entries are bucketed by target with a counting sort, and each
// bucket is compared with its in-list as a sorted multiset, so Validate
// costs O(V + E log d) for a maximum in-degree d and holds one E-entry
// scratch array. It is intended for tests and data loading.
func (g *Graph) Validate() error {
	n := len(g.out)
	// start[t+1] counts the out-entries targeting t, then becomes the
	// end of t's bucket.
	start := make([]int, n+1)
	edges := 0
	for v, list := range g.out {
		var sum float64
		for _, h := range list {
			if !g.valid(h.Node) {
				return fmt.Errorf("hin: node %d has out edge to invalid node %d", v, h.Node)
			}
			if h.Weight <= 0 || math.IsNaN(h.Weight) || math.IsInf(h.Weight, 0) {
				return fmt.Errorf("hin: edge (%d,%d) has bad weight %g", v, h.Node, h.Weight)
			}
			start[h.Node+1]++
			sum += h.Weight
		}
		if diff := math.Abs(sum - g.outWeight[v]); diff > 1e-9*(1+math.Abs(sum)) {
			return fmt.Errorf("hin: node %d cached out weight %g != actual %g", v, g.outWeight[v], sum)
		}
		edges += len(list)
	}
	if edges != g.numEdges {
		return fmt.Errorf("hin: edge count %d != cached %d", edges, g.numEdges)
	}
	for t := 0; t < n; t++ {
		start[t+1] += start[t]
	}
	// Sources are visited in ascending order, so each bucket comes out
	// sorted by source; only a source's parallel typed edges can be out
	// of type order.
	bucket := make([]HalfEdge, edges)
	fill := slices.Clone(start[:n])
	for v, list := range g.out {
		for _, h := range list {
			bucket[fill[h.Node]] = HalfEdge{Node: NodeID(v), Type: h.Type, Weight: h.Weight}
			fill[h.Node]++
		}
	}
	var scratch []HalfEdge // a sorted copy of an unsorted in-list
	for t := 0; t < n; t++ {
		want := bucket[start[t]:start[t+1]]
		if !slices.IsSortedFunc(want, cmpHalfEdge) {
			slices.SortFunc(want, cmpHalfEdge)
		}
		in := g.in[t]
		if !slices.IsSortedFunc(in, cmpHalfEdge) {
			scratch = append(scratch[:0], in...)
			slices.SortFunc(scratch, cmpHalfEdge)
			in = scratch
		}
		if err := sameEntries(NodeID(t), want, in); err != nil {
			return err
		}
	}
	return nil
}

// cmpHalfEdge orders half-edges by node, then type.
func cmpHalfEdge(a, b HalfEdge) int {
	if c := cmp.Compare(a.Node, b.Node); c != 0 {
		return c
	}
	return cmp.Compare(a.Type, b.Type)
}

// sameEntries compares the sorted out-entries targeting t with t's
// sorted in-list and reports the first entry missing from the in-list,
// extra in it, or carrying other weight bits.
func sameEntries(t NodeID, want, in []HalfEdge) error {
	for i, j := 0, 0; i < len(want) || j < len(in); {
		c := 1
		switch {
		case j == len(in):
			c = -1
		case i < len(want):
			c = cmpHalfEdge(want[i], in[j])
		}
		switch {
		case c < 0:
			return fmt.Errorf("hin: edge (%d,%d,type %d) missing from in-list", want[i].Node, t, want[i].Type)
		case c > 0:
			return fmt.Errorf("hin: in-list of node %d holds (%d,type %d) with no out-edge", t, in[j].Node, in[j].Type)
		}
		// The in-list entry is a literal copy of the out-list entry, so
		// bitwise weight equality is the invariant.
		if math.Float64bits(want[i].Weight) != math.Float64bits(in[j].Weight) {
			return fmt.Errorf("hin: edge (%d,%d,type %d) has weight %g but in-list weight %g",
				want[i].Node, t, want[i].Type, want[i].Weight, in[j].Weight)
		}
		i++
		j++
	}
	return nil
}

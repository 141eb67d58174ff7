// Package hin implements the Heterogeneous Information Network (HIN)
// substrate from Definition 3.1 of "Why-Not Explainable Graph Recommender"
// (Attolou et al., ICDE 2024): a directed, weighted graph in which every
// node and every edge belongs to exactly one registered type.
//
// The package provides:
//
//   - Graph: a mutable HIN with O(1) typed-edge lookup, per-node in/out
//     adjacency, and cached out-weight sums (the denominators of the
//     row-stochastic transition matrix W used by Personalized PageRank);
//   - Overlay: a copy-on-write counterfactual view over a base graph that
//     applies a set of edge additions and removals without copying the
//     graph — the workhorse of EMiGRe's CHECK step;
//   - CSR: an immutable flat snapshot of any View, optionally with one
//     node's out-row patched — the one shape the PPR push kernels
//     iterate;
//   - degree statistics per node type (the paper's Table 4);
//   - JSON and TSV serialization.
//
// PPR and recommendation code accepts the read-only View interface, so
// a Graph, an Overlay and a CSR are interchangeable as arguments; the
// push engines flatten whatever they are handed to a CSR once at entry.
package hin

import "fmt"

// NodeID identifies a node within a Graph. IDs are dense, starting at 0,
// in order of insertion. The zero value is a valid ID only if the graph
// has at least one node.
type NodeID int32

// InvalidNode is returned by lookups that fail to resolve a node.
const InvalidNode NodeID = -1

// NodeTypeID identifies a registered node type (e.g. "user", "item").
type NodeTypeID uint8

// EdgeTypeID identifies a registered edge type (e.g. "rated").
type EdgeTypeID uint8

// InvalidType is returned when a type name is not registered.
const InvalidType = ^uint8(0)

// Edge is a directed, typed, weighted edge. Weight must be positive and
// finite; the transition probability used by PPR is Weight divided by the
// sum of the source node's outgoing weights.
type Edge struct {
	From   NodeID
	To     NodeID
	Type   EdgeTypeID
	Weight float64
}

// String renders the edge as "from -type#k-> to (w)".
func (e Edge) String() string {
	return fmt.Sprintf("%d -%d-> %d (w=%g)", e.From, e.Type, e.To, e.Weight)
}

// HalfEdge is the adjacency-list representation of an Edge with the
// implicit endpoint dropped.
type HalfEdge struct {
	Node   NodeID
	Type   EdgeTypeID
	Weight float64
}

// View is the read-only interface shared by Graph and Overlay. PPR
// engines, the recommender and the explainers are all written against
// View so counterfactual overlays can be evaluated without materializing
// modified graphs.
type View interface {
	// NumNodes returns the number of nodes. Node IDs are 0..NumNodes-1.
	NumNodes() int
	// NodeType returns the type of node v.
	NodeType(v NodeID) NodeTypeID
	// OutEdges calls yield for every outgoing edge of v until yield
	// returns false. The iteration order is deterministic.
	OutEdges(v NodeID, yield func(HalfEdge) bool)
	// InEdges calls yield for every incoming edge of v until yield
	// returns false. The reported HalfEdge.Node is the edge source and
	// HalfEdge.Weight is the edge's weight (not normalized).
	InEdges(v NodeID, yield func(HalfEdge) bool)
	// OutDegree returns the number of outgoing edges of v.
	OutDegree(v NodeID) int
	// OutWeightSum returns the sum of outgoing edge weights of v — the
	// denominator of the transition probability W(v, .). It returns 0
	// for dangling nodes.
	OutWeightSum(v NodeID) float64
	// HasEdge reports whether at least one directed edge (from, to)
	// exists, of any type.
	HasEdge(from, to NodeID) bool
	// Types returns the shared type registry.
	Types() *TypeRegistry
}

// Transition returns the transition probability W(u, v) summed over all
// parallel typed edges from u to v under view g. It is 0 when u has no
// outgoing edges.
func Transition(g View, u, v NodeID) float64 {
	total := g.OutWeightSum(u)
	if total <= 0 {
		return 0
	}
	var w float64
	g.OutEdges(u, func(h HalfEdge) bool {
		if h.Node == v {
			w += h.Weight
		}
		return true
	})
	return w / total
}

// OutNeighbors returns the distinct out-neighbors of u in deterministic
// order (first-occurrence order of the adjacency list).
func OutNeighbors(g View, u NodeID) []NodeID {
	seen := make(map[NodeID]bool)
	var out []NodeID
	g.OutEdges(u, func(h HalfEdge) bool {
		if !seen[h.Node] {
			seen[h.Node] = true
			out = append(out, h.Node)
		}
		return true
	})
	return out
}

// TypeRegistry maps node- and edge-type names to small dense IDs. A
// registry is owned by a Graph and shared by all of its overlays.
type TypeRegistry struct {
	nodeNames []string
	nodeIDs   map[string]NodeTypeID
	edgeNames []string
	edgeIDs   map[string]EdgeTypeID
}

// NewTypeRegistry returns an empty registry.
func NewTypeRegistry() *TypeRegistry {
	return &TypeRegistry{
		nodeIDs: make(map[string]NodeTypeID),
		edgeIDs: make(map[string]EdgeTypeID),
	}
}

// NodeType registers (or resolves) a node type by name.
func (r *TypeRegistry) NodeType(name string) NodeTypeID {
	if id, ok := r.nodeIDs[name]; ok {
		return id
	}
	id := NodeTypeID(len(r.nodeNames))
	r.nodeNames = append(r.nodeNames, name)
	r.nodeIDs[name] = id
	return id
}

// EdgeType registers (or resolves) an edge type by name.
func (r *TypeRegistry) EdgeType(name string) EdgeTypeID {
	if id, ok := r.edgeIDs[name]; ok {
		return id
	}
	id := EdgeTypeID(len(r.edgeNames))
	r.edgeNames = append(r.edgeNames, name)
	r.edgeIDs[name] = id
	return id
}

// LookupNodeType resolves a node-type name without registering it. The
// second result is false if the name is unknown.
func (r *TypeRegistry) LookupNodeType(name string) (NodeTypeID, bool) {
	id, ok := r.nodeIDs[name]
	return id, ok
}

// LookupEdgeType resolves an edge-type name without registering it.
func (r *TypeRegistry) LookupEdgeType(name string) (EdgeTypeID, bool) {
	id, ok := r.edgeIDs[name]
	return id, ok
}

// NodeTypeName returns the name of a node type ID, or "" if out of range.
func (r *TypeRegistry) NodeTypeName(id NodeTypeID) string {
	if int(id) >= len(r.nodeNames) {
		return ""
	}
	return r.nodeNames[id]
}

// EdgeTypeName returns the name of an edge type ID, or "" if out of range.
func (r *TypeRegistry) EdgeTypeName(id EdgeTypeID) string {
	if int(id) >= len(r.edgeNames) {
		return ""
	}
	return r.edgeNames[id]
}

// NumNodeTypes returns the number of registered node types.
func (r *TypeRegistry) NumNodeTypes() int { return len(r.nodeNames) }

// NumEdgeTypes returns the number of registered edge types.
func (r *TypeRegistry) NumEdgeTypes() int { return len(r.edgeNames) }

// EdgeTypeSet is a small set of edge types, used to restrict the
// explanation search space (the paper's T_e). The zero value is the
// empty set, which by convention means "all types allowed".
type EdgeTypeSet struct {
	mask uint64 // bit i set <=> EdgeTypeID(i) allowed; 0 == allow all
}

// NewEdgeTypeSet builds a set from explicit type IDs. With no arguments
// the returned set allows every edge type.
func NewEdgeTypeSet(types ...EdgeTypeID) EdgeTypeSet {
	var s EdgeTypeSet
	for _, t := range types {
		if t > 63 {
			panic("hin: EdgeTypeSet supports at most 64 edge types")
		}
		s.mask |= 1 << uint(t)
	}
	return s
}

// Contains reports whether t is allowed by the set. The empty set allows
// every type.
func (s EdgeTypeSet) Contains(t EdgeTypeID) bool {
	return s.mask == 0 || s.mask&(1<<uint(t)) != 0
}

// IsAll reports whether the set allows every type.
func (s EdgeTypeSet) IsAll() bool { return s.mask == 0 }

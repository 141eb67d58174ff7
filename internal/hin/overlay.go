package hin

import (
	"fmt"
	"slices"

	"github.com/why-not-xai/emigre/internal/fault"
)

// overlaySite is the failpoint at the head of every counterfactual
// overlay build — the CHECK step's snapshot seam. Arming it makes every
// CHECK fail at construction time, before any PPR work runs.
var overlaySite = fault.Register("hin.overlay.snapshot")

// Overlay is a read-only counterfactual view: a base View with one
// node's out-row replaced by an edited copy. A Why-Not explanation only
// edits edges rooted at the query user, so every counterfactual the
// explainers test is one row; more rows take stacked overlays (the base
// may be any View, another Overlay included). Building one copies that
// row, never the graph, so EMiGRe's CHECK step can afford thousands.
//
// An Overlay is unversioned (it does not implement Versioned): every
// counterfactual is a one-off, so vectors computed over it are never
// cached. It is immutable after NewOverlay returns and therefore safe to
// read from any number of goroutines.
type Overlay struct {
	base    View
	node    NodeID     // the edited row's source; InvalidNode when nothing is edited
	row     []HalfEdge // node's out-row with the edits applied
	sum     float64    // node's out-weight sum with the edits applied
	changes int        // RowEdit.Changes of the row
}

// RowEdit is one edited source row of an overlay: the unit a
// warm-started PPR update repairs. Any edge edit perturbs every
// transition probability of its row (the recommender's β-mix spreads a
// uniform term over the whole row), so the consumer needs to know which
// row changed and how large the edit is — not the individual weights,
// which it re-reads from the patched row.
type RowEdit struct {
	// Node is the edited row's source node.
	Node NodeID
	// Changes counts the row's typed edges whose weight changed. A
	// removal re-added at a different weight (the Reweight-mode shape)
	// is one change, not two.
	Changes int
}

// NewOverlay builds a counterfactual view of base with the given edge
// removals and additions, which must all leave one source node
// (ErrMultiRow otherwise). Removals apply first, then additions, each
// in order: every removal must identify an existing typed edge of the
// row, every addition must not collide with a typed edge still in it
// and must carry a positive finite weight. Self-loop additions are
// rejected. Removing a typed edge and re-adding it with a different
// weight is allowed: that is how counterfactual re-weightings ("had you
// rated this 5 stars") are expressed.
func NewOverlay(base View, removals, additions []Edge) (*Overlay, error) {
	if err := overlaySite.Hit(nil); err != nil {
		return nil, fmt.Errorf("hin: building overlay: %w", err)
	}
	o := &Overlay{base: base, node: InvalidNode}
	seen := false
	for _, list := range [2][]Edge{removals, additions} {
		for _, e := range list {
			if !seen {
				o.node, seen = e.From, true
			} else if e.From != o.node {
				return nil, fmt.Errorf("%w: nodes %d and %d", ErrMultiRow, o.node, e.From)
			}
		}
	}
	inRange := func(v NodeID) bool { return v >= 0 && int(v) < base.NumNodes() }
	if inRange(o.node) {
		o.row = make([]HalfEdge, 0, base.OutDegree(o.node)+len(additions))
		base.OutEdges(o.node, func(h HalfEdge) bool { o.row = append(o.row, h); return true })
		o.sum = base.OutWeightSum(o.node)
	}
	for _, e := range removals {
		i := o.find(e.To, e.Type)
		if i < 0 {
			return nil, fmt.Errorf("%w: remove (%d,%d,type %d)", ErrNoSuchEdge, e.From, e.To, e.Type)
		}
		o.sum -= o.row[i].Weight
		o.row = append(o.row[:i], o.row[i+1:]...)
		o.changes++
	}
	for _, e := range additions {
		if e.From == e.To {
			return nil, fmt.Errorf("%w: node %d", ErrSelfLoop, e.From)
		}
		if err := checkWeight(e.Weight); err != nil {
			return nil, err
		}
		if !inRange(e.From) || !inRange(e.To) {
			return nil, fmt.Errorf("%w: (%d,%d)", ErrNodeOutOfRange, e.From, e.To)
		}
		if o.find(e.To, e.Type) >= 0 {
			return nil, fmt.Errorf("%w: add (%d,%d,type %d)", ErrDuplicateEdge, e.From, e.To, e.Type)
		}
		o.row = append(o.row, HalfEdge{Node: e.To, Type: e.Type, Weight: e.Weight})
		o.sum += e.Weight
		if !slices.ContainsFunc(removals, func(r Edge) bool { return r.To == e.To && r.Type == e.Type }) {
			o.changes++
		}
	}
	if o.sum < 0 || len(o.row) == 0 { // numeric drift guard; an emptied row is dangling
		o.sum = 0
	}
	return o, nil
}

// find returns the index of the typed edge to the given node in the
// edited row, -1 when there is none.
func (o *Overlay) find(to NodeID, typ EdgeTypeID) int {
	return slices.IndexFunc(o.row, func(h HalfEdge) bool { return h.Node == to && h.Type == typ })
}

// RowEdits returns the overlay's edited row relative to its base view
// (which may itself be an overlay): one entry, or nil when the overlay
// edits nothing. The result is built fresh on every call and owned by
// the caller; an Overlay stays immutable and safe for concurrent readers.
func (o *Overlay) RowEdits() []RowEdit {
	if o.node == InvalidNode {
		return nil
	}
	return []RowEdit{{Node: o.node, Changes: o.changes}}
}

// NumNodes returns the base view's node count (overlays cannot add nodes).
func (o *Overlay) NumNodes() int { return o.base.NumNodes() }

// NodeType returns the type of node v.
func (o *Overlay) NodeType(v NodeID) NodeTypeID { return o.base.NodeType(v) }

// Types returns the shared type registry.
func (o *Overlay) Types() *TypeRegistry { return o.base.Types() }

// OutEdges iterates v's outgoing edges with the overlay's edits applied:
// the edited row's base edges in base order, then its additions.
func (o *Overlay) OutEdges(v NodeID, yield func(HalfEdge) bool) {
	if v != o.node {
		o.base.OutEdges(v, yield)
		return
	}
	for _, h := range o.row {
		if !yield(h) {
			return
		}
	}
}

// OutDegree returns the out-degree of v under the overlay.
func (o *Overlay) OutDegree(v NodeID) int {
	if v != o.node {
		return o.base.OutDegree(v)
	}
	return len(o.row)
}

// OutWeightSum returns the total outgoing weight of v under the overlay.
func (o *Overlay) OutWeightSum(v NodeID) float64 {
	if v != o.node {
		return o.base.OutWeightSum(v)
	}
	return o.sum
}

// HasEdge reports whether a directed edge (from, to) of any type exists
// under the overlay.
func (o *Overlay) HasEdge(from, to NodeID) bool {
	if from != o.node {
		return o.base.HasEdge(from, to)
	}
	return slices.ContainsFunc(o.row, func(h HalfEdge) bool { return h.Node == to })
}

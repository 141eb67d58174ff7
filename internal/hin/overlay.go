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

// Overlay is a counterfactual edit of a base Graph: one node's out-row
// with edge removals and additions applied. A Why-Not explanation only
// edits edges rooted at the query user, so every counterfactual the
// explainers test is that one row, and the row is all an Overlay holds.
// It is not a graph: the CHECK step reads the row itself (MixedRow), and
// a cold drain patches it into the recommender's snapshot
// (rec.Recommender.WithUserPatch). Building one copies the row, never
// the graph; Reset rebuilds one in place without allocating once its row
// has grown, so EMiGRe's CHECK step can afford thousands.
//
// An Overlay is never mutated by its readers, so once built it is safe
// to read from any number of goroutines until the next Reset.
type Overlay struct {
	base    *Graph
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

// NewOverlay builds a counterfactual edit of base (see Reset).
func NewOverlay(base *Graph, removals, additions []Edge) (*Overlay, error) {
	o := &Overlay{}
	if err := o.Reset(base, removals, additions); err != nil {
		return nil, err
	}
	return o, nil
}

// Reset rebuilds o as the counterfactual edit of base with the given
// edge removals and additions, reusing o's row storage. The edits must
// all leave one source node (ErrMultiRow otherwise). Removals apply
// first, then additions, each in order: every removal must identify an
// existing typed edge of the row, every addition must not collide with a
// typed edge still in it and must carry a positive finite weight.
// Self-loop additions are rejected. Removing a typed edge and re-adding
// it with a different weight is allowed: that is how counterfactual
// re-weightings ("had you rated this 5 stars") are expressed. After an
// error o holds no usable edit until the next successful Reset.
func (o *Overlay) Reset(base *Graph, removals, additions []Edge) error {
	if err := overlaySite.Hit(nil); err != nil {
		return fmt.Errorf("hin: building overlay: %w", err)
	}
	o.base, o.node, o.row, o.sum, o.changes = base, InvalidNode, o.row[:0], 0, 0
	seen := false
	for _, list := range [2][]Edge{removals, additions} {
		for _, e := range list {
			if !seen {
				o.node, seen = e.From, true
			} else if e.From != o.node {
				return fmt.Errorf("%w: nodes %d and %d", ErrMultiRow, o.node, e.From)
			}
		}
	}
	if base.valid(o.node) {
		if need := len(base.out[o.node]) + len(additions); cap(o.row) < need {
			o.row = make([]HalfEdge, 0, need)
		}
		o.row, o.sum = append(o.row, base.out[o.node]...), base.outWeight[o.node]
	}
	for _, e := range removals {
		i := o.find(e.To, e.Type)
		if i < 0 {
			return fmt.Errorf("%w: remove (%d,%d,type %d)", ErrNoSuchEdge, e.From, e.To, e.Type)
		}
		o.sum -= o.row[i].Weight
		o.row = append(o.row[:i], o.row[i+1:]...)
		o.changes++
		if o.sum < 0 || len(o.row) == 0 { // Graph.RemoveEdge's drift guard; an emptied row is dangling
			o.sum = 0
		}
	}
	for _, e := range additions {
		if e.From == e.To {
			return fmt.Errorf("%w: node %d", ErrSelfLoop, e.From)
		}
		if err := checkWeight(e.Weight); err != nil {
			return err
		}
		if !base.valid(e.From) || !base.valid(e.To) {
			return fmt.Errorf("%w: (%d,%d)", ErrNodeOutOfRange, e.From, e.To)
		}
		if o.find(e.To, e.Type) >= 0 {
			return fmt.Errorf("%w: add (%d,%d,type %d)", ErrDuplicateEdge, e.From, e.To, e.Type)
		}
		o.row = append(o.row, HalfEdge{Node: e.To, Type: e.Type, Weight: e.Weight})
		o.sum += e.Weight
		if !slices.ContainsFunc(removals, func(r Edge) bool { return r.To == e.To && r.Type == e.Type }) {
			o.changes++
		}
	}
	return nil
}

// find returns the index of the typed edge to the given node in the
// edited row, -1 when there is none.
func (o *Overlay) find(to NodeID, typ EdgeTypeID) int {
	return slices.IndexFunc(o.row, func(h HalfEdge) bool { return h.Node == to && h.Type == typ })
}

// RowEdits returns the overlay's edited row relative to its base graph:
// one entry, or nil when the overlay edits nothing. The result is built
// fresh on every call and owned by the caller.
func (o *Overlay) RowEdits() []RowEdit {
	if o.node == InvalidNode {
		return nil
	}
	return []RowEdit{{Node: o.node, Changes: o.changes}}
}

// MixedRow returns u's out-row under the overlay — the edited row when u
// is the edited node, the base graph's otherwise — with every weight w
// replaced by the RecWalk β-mixed transition probability
//
//	W(u,x) = β·w/Σw(u) + (1−β)/deg(u)
//
// and the row's weight sum: 1, or 0 with no edges when u has no
// out-edge of positive total weight. β = 1 returns the raw row and its
// sum, the plain weighted walk. The row is written over dst's storage,
// which it grows only when dst is too short.
func (o *Overlay) MixedRow(dst []HalfEdge, u NodeID, beta float64) ([]HalfEdge, float64) {
	row, sum := o.row, o.sum
	if u != o.node {
		row, sum = o.base.out[u], o.base.outWeight[u]
	}
	return mixRow(append(dst[:0], row...), sum, beta)
}

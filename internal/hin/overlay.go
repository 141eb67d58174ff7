package hin

import (
	"fmt"

	"github.com/why-not-xai/emigre/internal/fault"
)

// overlaySite is the failpoint at the head of every counterfactual
// overlay build — the CHECK step's snapshot seam. Arming it makes every
// CHECK fail at construction time, before any PPR work runs.
var overlaySite = fault.Register("hin.overlay.snapshot")

type typedKey struct {
	from, to NodeID
	typ      EdgeTypeID
}

type pairKey struct{ from, to NodeID }

// Overlay is a read-only counterfactual view over a base View with a set
// of edge removals and additions applied. Building an Overlay is
// O(|edits|) and evaluating PPR over it costs the same as over the base
// graph, so EMiGRe's CHECK step can test thousands of candidate
// explanations without copying the graph.
//
// An Overlay may wrap another Overlay, composing edits.
//
// An Overlay is immutable after NewOverlay returns and therefore safe
// to read from any number of goroutines; concurrent explanation sessions
// each build their own overlays over the same base view.
type Overlay struct {
	base View

	removed map[typedKey]float64 // removed typed edges -> their base weight
	added   map[NodeID][]HalfEdge

	// outWeight holds corrected out-weight sums for nodes whose
	// out-edge set changed.
	outWeight map[NodeID]float64

	// pairDelta tracks HasEdge corrections: +1 per added typed edge,
	// -1 per removed typed edge for the (from,to) pair.
	pairDelta map[pairKey]int

	// digest is the order-insensitive digest of the edit set, combined
	// with the base version by Version. Two overlays built over the same
	// base from the same edits — in any order — share it.
	digest uint64
}

// NewOverlay builds a counterfactual view of base with the given edge
// removals and additions. Every removal must identify an existing typed
// edge of the base view, every addition must not collide with an
// existing typed edge (or another addition), and additions must carry a
// positive finite weight. Self-loop additions are rejected.
func NewOverlay(base View, removals, additions []Edge) (*Overlay, error) {
	if err := overlaySite.Hit(nil); err != nil {
		return nil, fmt.Errorf("hin: building overlay: %w", err)
	}
	o := &Overlay{
		base:      base,
		removed:   make(map[typedKey]float64, len(removals)),
		added:     make(map[NodeID][]HalfEdge, len(additions)),
		outWeight: make(map[NodeID]float64),
		pairDelta: make(map[pairKey]int),
	}
	for _, e := range removals {
		w, ok := baseEdgeWeight(base, e.From, e.To, e.Type)
		if !ok {
			return nil, fmt.Errorf("%w: remove (%d,%d,type %d)", ErrNoSuchEdge, e.From, e.To, e.Type)
		}
		k := typedKey{e.From, e.To, e.Type}
		if _, dup := o.removed[k]; dup {
			return nil, fmt.Errorf("hin: edge (%d,%d,type %d) removed twice", e.From, e.To, e.Type)
		}
		o.removed[k] = w
		o.pairDelta[pairKey{e.From, e.To}]--
		o.touch(e.From)
		o.outWeight[e.From] -= w
		o.digest += editDigest(editTagRemove, e.From, e.To, e.Type, 0)
	}
	for _, e := range additions {
		if e.From == e.To {
			return nil, fmt.Errorf("%w: node %d", ErrSelfLoop, e.From)
		}
		if e.Weight <= 0 {
			return nil, fmt.Errorf("%w: got %g", ErrBadWeight, e.Weight)
		}
		if e.From < 0 || int(e.From) >= base.NumNodes() || e.To < 0 || int(e.To) >= base.NumNodes() {
			return nil, fmt.Errorf("%w: (%d,%d)", ErrNodeOutOfRange, e.From, e.To)
		}
		k := typedKey{e.From, e.To, e.Type}
		if _, wasRemoved := o.removed[k]; !wasRemoved {
			if _, exists := baseEdgeWeight(base, e.From, e.To, e.Type); exists {
				return nil, fmt.Errorf("%w: add (%d,%d,type %d)", ErrDuplicateEdge, e.From, e.To, e.Type)
			}
		}
		// Removing a typed edge and re-adding it with a different weight
		// is allowed: that is how counterfactual *re-weightings* ("had
		// you rated this 5 stars") are expressed.
		for _, h := range o.added[e.From] {
			if h.Node == e.To && h.Type == e.Type {
				return nil, fmt.Errorf("%w: add (%d,%d,type %d) twice", ErrDuplicateEdge, e.From, e.To, e.Type)
			}
		}
		o.added[e.From] = append(o.added[e.From], HalfEdge{Node: e.To, Type: e.Type, Weight: e.Weight})
		o.pairDelta[pairKey{e.From, e.To}]++
		o.touch(e.From)
		o.outWeight[e.From] += e.Weight
		o.digest += editDigest(editTagAdd, e.From, e.To, e.Type, e.Weight)
	}
	return o, nil
}

// Version implements Versioned: the base view's version with the edit
// set's order-insensitive digest mixed in. Identical overlays rebuilt
// from the same edits over the same base state share a version (so
// repeated counterfactual probes can hit a cache), while a different
// edit set — or a mutation of the base graph — moves it. No version is
// available when the base view itself is unversioned.
func (o *Overlay) Version() (Version, bool) {
	base, ok := ViewVersion(o.base)
	if !ok {
		return Version{}, false
	}
	return base.Mix(o.digest), true
}

func baseEdgeWeight(base View, from, to NodeID, typ EdgeTypeID) (float64, bool) {
	if from < 0 || int(from) >= base.NumNodes() {
		return 0, false
	}
	var w float64
	found := false
	base.OutEdges(from, func(h HalfEdge) bool {
		if h.Node == to && h.Type == typ {
			w, found = h.Weight, true
			return false
		}
		return true
	})
	return w, found
}

// touch ensures o.outWeight has an entry for v seeded with the base sum.
func (o *Overlay) touch(v NodeID) {
	if _, ok := o.outWeight[v]; !ok {
		o.outWeight[v] = o.base.OutWeightSum(v)
	}
}

// Base returns the wrapped view.
func (o *Overlay) Base() View { return o.base }

// NumNodes returns the base view's node count (overlays cannot add nodes).
func (o *Overlay) NumNodes() int { return o.base.NumNodes() }

// NodeType returns the type of node v.
func (o *Overlay) NodeType(v NodeID) NodeTypeID { return o.base.NodeType(v) }

// Types returns the shared type registry.
func (o *Overlay) Types() *TypeRegistry { return o.base.Types() }

// OutEdges iterates v's outgoing edges with the overlay's edits applied.
func (o *Overlay) OutEdges(v NodeID, yield func(HalfEdge) bool) {
	stopped := false
	o.base.OutEdges(v, func(h HalfEdge) bool {
		if _, gone := o.removed[typedKey{v, h.Node, h.Type}]; gone {
			return true
		}
		if !yield(h) {
			stopped = true
			return false
		}
		return true
	})
	if stopped {
		return
	}
	for _, h := range o.added[v] {
		if !yield(h) {
			return
		}
	}
}

// OutDegree returns the out-degree of v under the overlay.
func (o *Overlay) OutDegree(v NodeID) int {
	n := 0
	o.OutEdges(v, func(HalfEdge) bool { n++; return true })
	return n
}

// OutWeightSum returns the total outgoing weight of v under the overlay.
func (o *Overlay) OutWeightSum(v NodeID) float64 {
	if w, ok := o.outWeight[v]; ok {
		if w < 0 {
			return 0
		}
		return w
	}
	return o.base.OutWeightSum(v)
}

// HasEdge reports whether a directed edge (from, to) of any type exists
// under the overlay.
func (o *Overlay) HasEdge(from, to NodeID) bool {
	delta, touched := o.pairDelta[pairKey{from, to}]
	if !touched {
		return o.base.HasEdge(from, to)
	}
	// Count base typed edges for the pair, then apply the delta.
	n := 0
	o.base.OutEdges(from, func(h HalfEdge) bool {
		if h.Node == to {
			n++
		}
		return true
	})
	return n+delta > 0
}

// Materialize copies the overlay into a fresh standalone Graph. Labels
// are preserved when the ultimate base is a *Graph.
func (o *Overlay) Materialize() (*Graph, error) {
	g := &Graph{
		types:   o.Types(),
		byName:  make(map[string]NodeID),
		version: nextVersionStamp(),
	}
	var root *Graph
	base := o.base
	for {
		switch b := base.(type) {
		case *Graph:
			root = b
		case *Overlay:
			base = b.base
			continue
		}
		break
	}
	for v := 0; v < o.NumNodes(); v++ {
		label := ""
		if root != nil {
			label = root.Label(NodeID(v))
		}
		g.AddNode(o.NodeType(NodeID(v)), label)
	}
	var err error
	for v := 0; v < o.NumNodes(); v++ {
		o.OutEdges(NodeID(v), func(h HalfEdge) bool {
			if e := g.AddEdge(NodeID(v), h.Node, h.Type, h.Weight); e != nil {
				err = e
				return false
			}
			return true
		})
		if err != nil {
			return nil, err
		}
	}
	return g, nil
}

package hin

import "errors"

// CSR is an immutable, flat (compressed sparse row) snapshot of a View,
// optionally with one node's outgoing row replaced (WithOutRow). It is
// the only shape the PPR push kernels iterate: adjacency is contiguous
// and the per-node weight sums are precomputed. EMiGRe's
// counterfactuals only ever edit the query user's out-edges, so the
// CHECK step scores an overlay by patching the user's new row
// (O(deg u)) into the shared base snapshot instead of re-flattening
// the whole graph.
//
// Every View method is exact under a row patch. The in-row arrays
// (InRows) are what a patch cannot serve from shared storage; NewCSR
// re-flattens a row-patched snapshot into a plain one for callers that
// need them.
type CSR struct {
	reg   *TypeRegistry
	ntype []NodeTypeID

	outStart []int32
	outHalf  []HalfEdge
	outSum   []float64

	// In-rows, struct-of-arrays for the reverse push kernel: in-edge
	// positions inStart[v]..inStart[v+1] of v hold the source, the
	// transition probability w/Σw(source) (0 if that sum is not positive)
	// and where the edge sits in outHalf (InEdges' type and weight).
	inStart []int32
	inSrc   []NodeID
	inProb  []float64
	inOut   []int32

	// patchNode's outgoing row is patchOut (weight sum patchSum) instead
	// of the arrays' entry; InvalidNode when the snapshot is unpatched.
	patchNode NodeID
	patchOut  []HalfEdge
	patchSum  float64

	// version is the source view's version captured at flatten time: a
	// CSR is a frozen snapshot, so it keeps identifying that state even
	// if the source graph mutates afterwards. A row-patched snapshot is
	// unversioned: it shares its base's arrays, never its identity.
	version   Version
	versioned bool
}

// NewCSR flattens v. A *CSR without a row patch is returned as-is; a
// row-patched one is re-flattened into a plain snapshot.
func NewCSR(v View) *CSR {
	if c, ok := v.(*CSR); ok && c.patchNode == InvalidNode {
		return c
	}
	n := v.NumNodes()
	c := &CSR{
		reg:       v.Types(),
		ntype:     make([]NodeTypeID, n),
		outStart:  make([]int32, n+1),
		inStart:   make([]int32, n+1),
		outSum:    make([]float64, n),
		patchNode: InvalidNode,
	}
	c.version, c.versioned = ViewVersion(v)
	outDeg := make([]int32, n)
	inDeg := make([]int32, n)
	edges := 0
	for i := 0; i < n; i++ {
		c.ntype[i] = v.NodeType(NodeID(i))
		c.outSum[i] = v.OutWeightSum(NodeID(i))
		v.OutEdges(NodeID(i), func(h HalfEdge) bool {
			outDeg[i]++
			inDeg[h.Node]++
			edges++
			return true
		})
	}
	c.outHalf = make([]HalfEdge, edges)
	c.inSrc = make([]NodeID, edges)
	c.inProb = make([]float64, edges)
	c.inOut = make([]int32, edges)
	for i := 0; i < n; i++ {
		c.outStart[i+1] = c.outStart[i] + outDeg[i]
		c.inStart[i+1] = c.inStart[i] + inDeg[i]
	}
	outPos := make([]int32, n)
	inPos := make([]int32, n)
	copy(outPos, c.outStart[:n])
	copy(inPos, c.inStart[:n])
	for i := 0; i < n; i++ {
		v.OutEdges(NodeID(i), func(h HalfEdge) bool {
			c.outHalf[outPos[i]] = h
			at := inPos[h.Node]
			c.inSrc[at], c.inOut[at] = NodeID(i), outPos[i]
			if c.outSum[i] > 0 {
				c.inProb[at] = h.Weight / c.outSum[i]
			}
			outPos[i]++
			inPos[h.Node]++
			return true
		})
	}
	return c
}

// WithOutRow returns a snapshot sharing c's arrays with node's outgoing
// row replaced by out (weight sum outSum). The slice is retained;
// callers must not mutate it afterwards. c is not modified. The result
// is unversioned, so it can never be served from (or stored under) c's
// cache keys.
func (c *CSR) WithOutRow(node NodeID, out []HalfEdge, outSum float64) *CSR {
	base := c
	if c.patchNode != InvalidNode && c.patchNode != node {
		base = NewCSR(c) // one patch per snapshot: materialize the other row first
	}
	p := *base
	p.patchNode, p.patchOut, p.patchSum = node, out, outSum
	p.version, p.versioned = Version{}, false
	return &p
}

// Version implements Versioned: the version of the view the snapshot
// was flattened from.
func (c *CSR) Version() (Version, bool) { return c.version, c.versioned }

// NumNodes implements View.
func (c *CSR) NumNodes() int { return len(c.ntype) }

// NodeType implements View.
func (c *CSR) NodeType(v NodeID) NodeTypeID { return c.ntype[v] }

// Types implements View.
func (c *CSR) Types() *TypeRegistry { return c.reg }

// OutEdges implements View.
func (c *CSR) OutEdges(v NodeID, yield func(HalfEdge) bool) {
	for _, h := range c.OutSlice(v) {
		if !yield(h) {
			return
		}
	}
}

// InEdges implements View. Under a row patch, base in-edges originating
// at the patched node are suppressed and the patched row's entries
// follow the rest.
func (c *CSR) InEdges(v NodeID, yield func(HalfEdge) bool) {
	for at := c.inStart[v]; at < c.inStart[v+1]; at++ {
		src := c.inSrc[at]
		if src == c.patchNode {
			continue
		}
		h := c.outHalf[c.inOut[at]]
		if !yield(HalfEdge{Node: src, Type: h.Type, Weight: h.Weight}) {
			return
		}
	}
	for _, h := range c.patchOut {
		if h.Node == v && !yield(HalfEdge{Node: c.patchNode, Type: h.Type, Weight: h.Weight}) {
			return
		}
	}
}

// OutDegree implements View.
func (c *CSR) OutDegree(v NodeID) int { return len(c.OutSlice(v)) }

// OutWeightSum implements View.
func (c *CSR) OutWeightSum(v NodeID) float64 {
	if v == c.patchNode {
		return c.patchSum
	}
	return c.outSum[v]
}

// OutSlice returns v's outgoing adjacency as a shared slice (the
// patched row for a patched node). Callers must not mutate it; it
// exists so hot loops (PPR pushes) can avoid the callback overhead of
// OutEdges.
func (c *CSR) OutSlice(v NodeID) []HalfEdge {
	if v == c.patchNode {
		return c.patchOut
	}
	return c.outHalf[c.outStart[v]:c.outStart[v+1]]
}

var errPatchedInRows = errors.New("hin: in-row access on a row-patched CSR (flatten it with NewCSR first)")

// InRows returns the in-row arrays (see CSR) as shared slices for the
// reverse push kernel; callers must not mutate them. They are the
// base's, so a row-patched snapshot cannot answer: flatten it with
// NewCSR first.
func (c *CSR) InRows() (start []int32, src []NodeID, prob []float64) {
	if c.patchNode != InvalidNode {
		panic(errPatchedInRows)
	}
	return c.inStart, c.inSrc, c.inProb
}

// HasEdge implements View by scanning v's out list (CSR is built for
// push loops; candidate filtering keeps using the underlying graph's
// indexed lookup).
func (c *CSR) HasEdge(from, to NodeID) bool {
	for _, h := range c.OutSlice(from) {
		if h.Node == to {
			return true
		}
	}
	return false
}

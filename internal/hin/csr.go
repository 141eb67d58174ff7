package hin

import (
	"errors"
	"math"

	"github.com/why-not-xai/emigre/internal/fmath"
)

// CSR is an immutable, flat (compressed sparse row) snapshot of a
// Graph, optionally β-mixed (NewMixedCSR) and optionally with one
// node's outgoing row replaced (WithOutRow). It is the only shape the
// PPR push kernels iterate: both walk padded rows of transition
// probabilities (OutRows, InRows) precomputed here. EMiGRe's
// counterfactuals only ever edit the query user's out-edges, so the
// CHECK step scores an overlay by patching the user's new row
// (O(deg u)) into the shared base snapshot instead of re-flattening
// the whole graph.
//
// Every out-row reader (OutSlice, OutWeightSum, OutProbs) is exact
// under a row patch. The in-row arrays (InRows) are what a patch
// cannot serve from shared storage, so a patched snapshot refuses them.
type CSR struct {
	outStart []int32
	outHalf  []HalfEdge
	outSum   []float64

	// Out-rows, struct-of-arrays for the forward push kernel: lanes
	// rowStart[v]..rowStart[v+1] hold v's out-edges in outHalf's order,
	// as the target and the transition probability w/Σw(v) (0 if that
	// sum is not positive), padded like the in-rows (see OutRows).
	rowStart []int32
	rowDst   []NodeID
	rowProb  []float64

	// In-rows, struct-of-arrays for the reverse push kernel: in-edge
	// positions inStart[v]..inStart[v+1] of v hold the source and the
	// transition probability w/Σw(source) (0 if that sum is not
	// positive). Each row is padded to a multiple of InLanes: a pad lane
	// follows the real ones and has probability 0 and the source n + its
	// position mod InLanes (see InRows).
	inStart []int32
	inSrc   []NodeID
	inProb  []float64

	// patchNode's outgoing row is patchOut (weight sum patchSum) instead
	// of the arrays' entry, and patchDst, patchProb are its padded
	// out-row; InvalidNode when the snapshot is unpatched.
	patchNode NodeID
	patchOut  []HalfEdge
	patchSum  float64
	patchDst  []NodeID
	patchProb []float64

	// version is the source graph's version captured at flatten time and
	// salted with β (NewMixedCSR): a CSR is a frozen snapshot, so it
	// keeps identifying that state even if the source graph mutates
	// afterwards. A row-patched snapshot is unversioned: it shares its
	// base's arrays, never its identity.
	version   Version
	versioned bool
}

// NewCSR flattens g: NewMixedCSR at β = 1, the plain weighted walk.
func NewCSR(g *Graph) *CSR { return NewMixedCSR(g, 1) }

// NewMixedCSR flattens g under the β-mix: every node's row is mixed as
// Overlay.MixedRow mixes one, so at β < 1 a row's weights are its
// transition probabilities and sum to 1. β = 1 is NewCSR's plain
// weighted walk.
// The snapshot carries g's version salted with β's bit pattern, or g's
// own at β = 1, where the mix is the identity: two mixes of one graph
// state share a version only under the same β.
func NewMixedCSR(g *Graph, beta float64) *CSR {
	n := g.NumNodes()
	c := &CSR{
		outStart:  make([]int32, n+1),
		rowStart:  make([]int32, n+1),
		inStart:   make([]int32, n+1),
		outSum:    make([]float64, n),
		patchNode: InvalidNode,
	}
	if c.version, c.versioned = g.Version(), true; !fmath.Eq(beta, 1) {
		c.version = c.version.Mix(math.Float64bits(beta))
	}
	c.outHalf = make([]HalfEdge, 0, g.numEdges)
	inDeg := make([]int32, n)
	for i, out := range g.out {
		at := len(c.outHalf)
		c.outHalf = append(c.outHalf, out...)
		row, sum := mixRow(c.outHalf[at:], g.outWeight[i], beta)
		c.outHalf, c.outSum[i] = c.outHalf[:at+len(row)], sum
		for _, h := range row {
			inDeg[h.Node]++
		}
		c.outStart[i+1] = int32(len(c.outHalf))
		c.rowStart[i+1] = c.rowStart[i] + padLanes(int32(len(row)))
	}
	for i := range n {
		c.inStart[i+1] = c.inStart[i] + padLanes(inDeg[i])
	}
	c.rowDst = make([]NodeID, c.rowStart[n])
	c.rowProb = make([]float64, c.rowStart[n])
	c.inSrc = make([]NodeID, c.inStart[n])
	c.inProb = make([]float64, c.inStart[n])
	inPos := make([]int32, n)
	copy(inPos, c.inStart[:n])
	for i := range n {
		lane := c.rowStart[i]
		for _, h := range c.outHalf[c.outStart[i]:c.outStart[i+1]] {
			prob, at := transition(h.Weight, c.outSum[i]), inPos[h.Node]
			c.rowDst[lane], c.rowProb[lane] = h.Node, prob
			c.inSrc[at], c.inProb[at] = NodeID(i), prob
			inPos[h.Node]++
			lane++
		}
		padRow(c.rowDst, lane, c.rowStart[i+1], n)
	}
	for v := range n {
		padRow(c.inSrc, inPos[v], c.inStart[v+1], n)
	}
	c.checkRows()
	return c
}

// mixRow rewrites row, a node's out-edges of weight sum total, in place
// into its β-mixed row (see Overlay.MixedRow).
func mixRow(row []HalfEdge, total, beta float64) ([]HalfEdge, float64) {
	if fmath.Eq(beta, 1) {
		return row, total
	}
	if total <= 0 || len(row) == 0 {
		return row[:0], 0
	}
	uniform := (1 - beta) / float64(len(row))
	for i := range row {
		row[i].Weight = beta*row[i].Weight/total + uniform
	}
	return row, 1
}

// InLanes is the width every out-row and in-row is padded to (see
// OutRows, InRows).
const InLanes = 4

// padLanes is the lanes a row of deg edges is padded to.
func padLanes(deg int32) int32 { return (deg + InLanes - 1) / InLanes * InLanes }

// transition is the probability of an edge of weight w out of a node of
// out-weight sum total: 0 if that sum is not positive.
func transition(w, total float64) float64 {
	if total <= 0 {
		return 0
	}
	return w / total
}

// padRow points the pad lanes [from, to) of a row at the scratch slots
// n + position mod InLanes; their probabilities stay 0.
func padRow(node []NodeID, from, to int32, n int) {
	for at := from; at < to; at++ {
		node[at] = NodeID(n + int(at)%InLanes)
	}
}

var errRowLayout = errors.New("hin: padded rows break their layout (see CSR.InRows)")

// checkRows panics unless both row kinds keep the invariant OutRows and
// InRows promise (see rowsPadded).
func (c *CSR) checkRows() {
	n := c.NumNodes()
	if !rowsPadded(n, c.rowStart, c.rowDst, c.rowProb) || !rowsPadded(n, c.inStart, c.inSrc, c.inProb) {
		panic(errRowLayout)
	}
}

// rowsPadded reports whether padded rows over n nodes keep their layout:
// every row starts at a multiple of InLanes, the arrays' length is one
// too, and every node lies in [0, n+InLanes).
func rowsPadded(n int, start []int32, node []NodeID, prob []float64) bool {
	bad := len(node)%InLanes != 0 || len(prob) != len(node)
	for _, at := range start[:len(start)-1] {
		bad = bad || at%InLanes != 0
	}
	for _, x := range node {
		bad = bad || x < 0 || int(x) >= n+InLanes
	}
	return !bad
}

var errPatchOnPatch = errors.New("hin: WithOutRow on a snapshot already patched at another node")

// WithOutRow returns a snapshot sharing c's arrays with node's outgoing
// row replaced by out (weight sum outSum), its padded out-row (see
// PatchedRow) computed once here. The slice is retained; callers must
// not mutate it afterwards. c is not modified. The result is
// unversioned, so it can never be served from (or stored under) c's
// cache keys. A snapshot holds one patch: re-patching the patched node
// replaces its row, and patching another node panics, as does an edge
// of out that leaves the graph.
func (c *CSR) WithOutRow(node NodeID, out []HalfEdge, outSum float64) *CSR {
	if c.patchNode != InvalidNode && c.patchNode != node {
		panic(errPatchOnPatch)
	}
	n := c.NumNodes()
	lanes := padLanes(int32(len(out)))
	dst, prob := make([]NodeID, lanes), make([]float64, lanes)
	for i, h := range out {
		if h.Node < 0 || int(h.Node) >= n {
			panic(errRowLayout)
		}
		dst[i], prob[i] = h.Node, transition(h.Weight, outSum)
	}
	padRow(dst, int32(len(out)), lanes, n)
	p := *c
	p.patchNode, p.patchOut, p.patchSum = node, out, outSum
	p.patchDst, p.patchProb = dst, prob
	p.version, p.versioned = Version{}, false
	return &p
}

// Version returns the version of the graph the snapshot was flattened
// from, salted with its β; false on a row-patched snapshot.
func (c *CSR) Version() (Version, bool) { return c.version, c.versioned }

// NumNodes returns the number of nodes. Node IDs are 0..NumNodes-1.
func (c *CSR) NumNodes() int { return len(c.outSum) }

// OutWeightSum returns the sum of v's outgoing weights (the patch's for
// the patched node): the denominator of W(v,·), 0 for a dangling node.
func (c *CSR) OutWeightSum(v NodeID) float64 {
	if v == c.patchNode {
		return c.patchSum
	}
	return c.outSum[v]
}

// OutSlice returns v's outgoing adjacency as a shared slice (the
// patched row for a patched node), in the source graph's order. Callers
// must not mutate it; it serves the row walks that need an edge's type
// or weight (the push kernels read OutRows).
func (c *CSR) OutSlice(v NodeID) []HalfEdge {
	if v == c.patchNode {
		return c.patchOut
	}
	return c.outHalf[c.outStart[v]:c.outStart[v+1]]
}

// OutProbs returns the transition probabilities W(v,·) of v's
// out-edges, aligned with OutSlice(v): the lanes the push kernels walk
// (OutRows, or PatchedRow for the patched node). Callers must not
// mutate it.
func (c *CSR) OutProbs(v NodeID) []float64 {
	if v == c.patchNode {
		return c.patchProb[:len(c.patchOut)]
	}
	at := c.rowStart[v]
	return c.rowProb[at : at+c.outStart[v+1]-c.outStart[v]]
}

// OutRows returns the out-row arrays (see CSR) as shared slices for the
// forward push kernel; callers must not mutate them. v's edges sit at
// start[v] onwards in OutSlice's order, as the target dst[i] and the
// probability prob[i] = w/Σw(v), and pad lanes fill the row up to
// start[v+1], laid out as InRows' are. The arrays are the base's: on a
// row-patched snapshot the patched node's entry is its old row, and
// PatchedRow holds the new one.
func (c *CSR) OutRows() (start []int32, dst []NodeID, prob []float64) {
	return c.rowStart, c.rowDst, c.rowProb
}

// PatchedRow returns the patched node and its out-row, padded as an
// OutRows row starting at lane 0, or InvalidNode and nil slices on an
// unpatched snapshot. Callers must not mutate the slices.
func (c *CSR) PatchedRow() (node NodeID, dst []NodeID, prob []float64) {
	return c.patchNode, c.patchDst, c.patchProb
}

var errPatchedInRows = errors.New("hin: in-row access on a row-patched CSR")

// InRows returns the in-row arrays (see CSR) as shared slices for the
// reverse push kernel; callers must not mutate them. They are the
// base's, so a row-patched snapshot cannot answer and panics.
//
// The rows are padded: v's real in-edges sit at start[v] onwards in
// ascending source order, and pad lanes fill the row up to start[v+1].
// NewCSR checks for both row kinds, and panics otherwise, that every
// start[v] and len(src) == len(prob) are multiples of InLanes and that
// every source lies in [0, n+InLanes). A pad lane's probability is 0 and
// its source is in [n, n+InLanes), so a loop that walks whole rows
// InLanes at a time over a vector of n+InLanes entries stays in bounds,
// and a pad lane adds an exact ±0 to a scratch entry past n.
func (c *CSR) InRows() (start []int32, src []NodeID, prob []float64) {
	if c.patchNode != InvalidNode {
		panic(errPatchedInRows)
	}
	return c.inStart, c.inSrc, c.inProb
}

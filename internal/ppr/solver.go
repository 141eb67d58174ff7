package ppr

import (
	"fmt"
	"math"

	"github.com/why-not-xai/emigre/internal/fmath"
	"github.com/why-not-xai/emigre/internal/hin"
)

// Exact solves the PPR linear system directly by Gaussian elimination
// with partial pivoting:
//
//	π_s (I − (1−α)W) = α e_s
//
// It is O(n³) and exists as the ground-truth oracle for validating the
// iterative engines on small graphs (the engines' own agreement tests
// are circular without an independent reference). Refuses graphs
// larger than MaxNodes.
type Exact struct {
	Params Params
	// MaxNodes bounds the dense solve; default 512.
	MaxNodes int
}

// DefaultExactMaxNodes bounds the dense O(n³) solve.
const DefaultExactMaxNodes = 512

// NewExact returns the dense direct solver.
func NewExact(p Params) *Exact { return &Exact{Params: p, MaxNodes: DefaultExactMaxNodes} }

// FromSource solves for the full row π_s.
func (e *Exact) FromSource(g *hin.CSR, s hin.NodeID) (Vector, error) {
	if err := e.Params.Validate(); err != nil {
		return nil, err
	}
	if err := checkNode(g, s); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	limit := e.MaxNodes
	if limit == 0 {
		limit = DefaultExactMaxNodes
	}
	if n > limit {
		return nil, fmt.Errorf("ppr: exact solver limited to %d nodes, graph has %d", limit, n)
	}
	// Row system: π (I − (1−α)W) = α e_s  ⇔  (I − (1−α)Wᵀ) πᵀ = α e_s.
	alpha := e.Params.Alpha
	a := make([][]float64, n) // dense (I − (1−α)Wᵀ)
	for i := range a {
		a[i] = make([]float64, n)
		a[i][i] = 1
	}
	for v := 0; v < n; v++ {
		total := g.OutWeightSum(hin.NodeID(v))
		if total <= 0 {
			continue
		}
		for _, h := range g.OutSlice(hin.NodeID(v)) {
			// W(v, h.Node) contributes to row h.Node of Wᵀ.
			a[h.Node][v] -= (1 - alpha) * h.Weight / total
		}
	}
	b := make([]float64, n)
	b[s] = alpha
	if err := solveInPlace(a, b); err != nil {
		return nil, err
	}
	return b, nil
}

// solveInPlace performs Gaussian elimination with partial pivoting on
// the augmented system [a | b], leaving the solution in b.
func solveInPlace(a [][]float64, b []float64) error {
	n := len(a)
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		best := math.Abs(a[col][col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r][col]); v > best {
				best = v
				pivot = r
			}
		}
		if best < 1e-14 {
			return fmt.Errorf("ppr: singular system at column %d", col)
		}
		if pivot != col {
			a[pivot], a[col] = a[col], a[pivot]
			b[pivot], b[col] = b[col], b[pivot]
		}
		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] * inv
			if fmath.Eq(f, 0) {
				continue
			}
			a[r][col] = 0
			for c := col + 1; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	// Back substitution.
	for col := n - 1; col >= 0; col-- {
		sum := b[col]
		for c := col + 1; c < n; c++ {
			sum -= a[col][c] * b[c]
		}
		b[col] = sum / a[col][col]
	}
	return nil
}

// Package ppr implements Personalized PageRank (PPR) over a HIN view,
// the scoring substrate of the paper's recommender (§3.2):
//
//	PPR(s,·) = α·e_s + (1−α)·PPR(s,·)·W           (Eq. 1)
//
// where W is the row-stochastic transition matrix induced by outgoing
// edge weights. The paper's method needs two primitives, and they are
// the two production engines:
//
//   - ForwardPush: Forward Local Push from a source node, maintaining the
//     invariant of Eq. 3 of the paper (estimates + residuals). Its one
//     kernel sweeps the nodes in ascending id, pushing every residual
//     above ε in absolute value; it drains both a run from e_s
//     (RunContext) and the repaired residuals of a completed run after a
//     row edit (UpdateForEdit);
//   - ReversePush: Reverse Local Push toward a target node, maintaining
//     the invariant of Eq. 4 — the engine EMiGRe's Add mode uses to
//     discover candidate neighbors. Its one kernel sweeps the nodes in
//     ascending id and drains K columns per pass of the graph
//     (ToTargets); a column is bit-identical whatever batch drained it.
//
// Both accept any hin.View and normalise it once at entry to the one
// shape their kernels iterate, a flat *hin.CSR (optionally carrying a
// one-row patch): a *hin.CSR is used as is, anything else is flattened
// with hin.NewCSR. Power (dense iteration) and Exact (Gauss–Seidel)
// stay on hin.View as the test references.
//
// Dangling nodes (no outgoing edges) absorb the walk: the transition
// matrix is sub-stochastic there and PPR mass is lost. This convention
// (rather than teleport-to-seed) keeps PPR(·,t) a solution of a single
// linear system, which Reverse Local Push requires; graphs produced by
// the paper's preprocessing are bidirectional, so dangling nodes do not
// occur in practice and the engines agree exactly.
package ppr

import (
	"context"
	"errors"
	"fmt"
	"math"

	"github.com/why-not-xai/emigre/internal/hin"
)

// Vector is a dense PPR score vector indexed by NodeID.
type Vector []float64

// Sum returns the total mass of the vector.
func (v Vector) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// ArgMax returns the index with the highest score, breaking ties toward
// the lowest index. It returns -1 for an empty vector.
func (v Vector) ArgMax() hin.NodeID {
	best := hin.InvalidNode
	bestScore := math.Inf(-1)
	for i, x := range v {
		if x > bestScore {
			bestScore = x
			best = hin.NodeID(i)
		}
	}
	return best
}

// Params configures the PPR engines.
type Params struct {
	// Alpha is the teleportation probability of Eq. 1. The paper sets
	// α = 0.15.
	Alpha float64
	// Epsilon is the residual threshold of the local-push engines. The
	// paper sets ε = 2.7e-8.
	Epsilon float64
	// MaxIter bounds power iteration.
	MaxIter int
	// Tol is the L1 convergence tolerance of power iteration.
	Tol float64
}

// DefaultParams returns the hyper-parameters used in the paper's
// experimental setting (§6.1): α = 0.15, ε = 2.7e-8.
func DefaultParams() Params {
	return Params{
		Alpha:   0.15,
		Epsilon: 2.7e-8,
		MaxIter: 500,
		Tol:     1e-12,
	}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.Alpha <= 0 || p.Alpha >= 1 || math.IsNaN(p.Alpha) {
		return fmt.Errorf("ppr: alpha must be in (0,1), got %g", p.Alpha)
	}
	if p.Epsilon <= 0 {
		return fmt.Errorf("ppr: epsilon must be positive, got %g", p.Epsilon)
	}
	if p.MaxIter <= 0 {
		return fmt.Errorf("ppr: max iterations must be positive, got %d", p.MaxIter)
	}
	return nil
}

// Errors shared by the engines.
var (
	ErrNodeOutOfRange = errors.New("ppr: node out of range")
	ErrNoConvergence  = errors.New("ppr: power iteration did not converge")
)

func checkNode(g hin.View, v hin.NodeID) error {
	if v < 0 || int(v) >= g.NumNodes() {
		return fmt.Errorf("%w: %d (graph has %d nodes)", ErrNodeOutOfRange, v, g.NumNodes())
	}
	return nil
}

// ctxCheckInterval is the number of node visits between context checks
// in the push engines' sweeps: frequent
// enough that a canceled computation stops within microseconds, rare
// enough that the check never shows up in profiles. Power iteration
// checks once per O(E) sweep instead.
const ctxCheckInterval = 1024

// ctxErr reports a pending cancellation. A nil context (callers that
// predate the context plumbing) never cancels.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// Engine computes the personalized score vector of a single source, the
// row PPR(s,·) of Eq. 1. Every concrete engine additionally offers a
// Context-suffixed variant of its methods that aborts mid-computation
// with ctx.Err() once the context is canceled or its deadline passes.
type Engine interface {
	// FromSource returns PPR(s, v) for every node v.
	FromSource(g hin.View, s hin.NodeID) (Vector, error)
	// Name identifies the engine in reports.
	Name() string
}

// Identifier is implemented by engines that can state their cache
// identity: a stable string naming the algorithm together with every
// parameter that influences its output. Two engine values with equal
// identities are guaranteed to return the same vector for the same
// (view, node) pair, so the identity is safe to use as a cache-key
// component. Engines must include ONLY the parameters they actually
// read — and ALL of them: the push engines name α and ε, power
// iteration α, MaxIter and Tol.
type Identifier interface {
	Identity() string
}

// flatten returns g in the shape the forward kernels iterate: a
// *hin.CSR (plain or row-patched) as is, anything else flattened once.
func flatten(g hin.View) *hin.CSR {
	if c, ok := g.(*hin.CSR); ok {
		return c
	}
	return hin.NewCSR(g)
}

// ReverseEngine computes the column PPR(·,t): the score of a fixed
// target t personalized to every possible source.
type ReverseEngine interface {
	// ToTarget returns PPR(x, t) for every node x.
	ToTarget(g hin.View, t hin.NodeID) (Vector, error)
	Name() string
}

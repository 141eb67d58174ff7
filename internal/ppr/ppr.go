// Package ppr implements Personalized PageRank (PPR) over a HIN snapshot,
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
//     kernel sweeps the nodes in ascending id, over-relaxed like the
//     reverse one and through the same padded push body, pushing every
//     residual above ε in absolute value; it
//     drains both a run from e_s (RunContext) and the repaired residuals
//     of a completed run after a row edit (UpdateForEdit). Its estimates
//     are within Params.ForwardErr(C(t)) of the exact score, on either
//     side, C(t) = Σ_x PPR(x,t) (ColumnSums bounds it);
//   - ReversePush: Reverse Local Push toward a target node, maintaining
//     the invariant of Eq. 4 — the engine EMiGRe's Add mode uses to
//     discover candidate neighbors. Its one kernel sweeps the nodes in
//     ascending id, over-relaxed (each push moves ω·r, ω derived from α).
//     A ToTargets batch drains up to eight columns a pass through a
//     packed AVX-512 body where the CPU has one (body8), four through a
//     packed AVX2 body (body4), one at a time otherwise, and a column is
//     bit-identical whichever body and batch drained it. Its estimates are within Params.ColumnErr of the exact
//     column, on either side.
//
// Both push over a *hin.CSR, the flat snapshot of the transition
// matrix; a forward push also takes one carrying a one-row patch
// (hin.CSR.WithOutRow), a reverse push refuses it. Each engine is a
// driver — the sweeps and the ω guards — around one push body
// (kernel.body) that walks the CSR's padded rows, out-rows forward and
// in-rows in reverse; the reverse driver has body4 and body8, its
// four- and eight-column packed twins, beside it. Power (dense
// iteration) and Exact (Gaussian elimination) read the same snapshot's
// rows as the test references.
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
	"sync/atomic"

	"github.com/why-not-xai/emigre/internal/freelist"
	"github.com/why-not-xai/emigre/internal/hin"
)

// Vector is a dense PPR score vector indexed by NodeID.
type Vector []float64

// Params configures the PPR engines.
type Params struct {
	// Alpha is the teleportation probability of Eq. 1. The paper sets
	// α = 0.15.
	Alpha float64
	// Epsilon is the residual threshold of the local-push engines. The
	// paper sets ε = 2.7e-8.
	Epsilon float64
}

// DefaultParams returns the hyper-parameters used in the paper's
// experimental setting (§6.1): α = 0.15, ε = 2.7e-8.
func DefaultParams() Params {
	return Params{Alpha: 0.15, Epsilon: 2.7e-8}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.Alpha <= 0 || p.Alpha >= 1 || math.IsNaN(p.Alpha) {
		return fmt.Errorf("ppr: alpha must be in (0,1), got %g", p.Alpha)
	}
	if p.Epsilon <= 0 {
		return fmt.Errorf("ppr: epsilon must be positive, got %g", p.Epsilon)
	}
	return nil
}

// ColumnErr bounds a reverse-push estimate's error, on either side: a
// column drained to ε leaves every |residual| ≤ ε, so Eq. 4 puts
// |PPR(x,t) − est(x)| ≤ ε·Σ_y PPR(x,y) ≤ ε. Every reader of a column's
// accuracy reads it here.
func (p Params) ColumnErr() float64 { return p.Epsilon }

// ForwardErr bounds a forward-push estimate's error at t, on either side,
// given c ≥ C(t) = Σ_x PPR(x,t) (ColumnSums): a drain to ε leaves every
// |residual| ≤ ε, so Eq. 3 puts |PPR(s,t) − est(t)| ≤ ε·C(t). Every
// reader of a forward estimate's accuracy reads it here.
func (p Params) ForwardErr(c float64) float64 { return p.Epsilon * c }

// Errors shared by the engines.
var (
	ErrNodeOutOfRange = errors.New("ppr: node out of range")
	ErrNoConvergence  = errors.New("ppr: power iteration did not converge")
)

func checkNode(g *hin.CSR, v hin.NodeID) error {
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

// Identifier is implemented by engines that can state their cache
// identity: a stable string naming the algorithm together with every
// parameter that influences its output. Two engine values with equal
// identities are guaranteed to return the same vector for the same
// (view, node) pair, so the identity is safe to use as a cache-key
// component. Engines must include ONLY the parameters they actually
// read — and ALL of them: the push engines name α and ε, power
// iteration α and its own MaxIter and Tol.
type Identifier interface {
	Identity() string
}

// identity is a push engine's Identity string, formatted on first use
// and kept with the α and ε it was formatted from: every cache key
// reads it, and a literal engine or one whose Params change later still
// reports the string of its current parameters. Safe for concurrent
// use, like the engines.
type identity struct {
	last atomic.Pointer[identityOf]
}

type identityOf struct {
	alpha, eps float64
	s          string
}

// of returns name's identity under p.
func (id *identity) of(name string, p Params) string {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if last := id.last.Load(); last != nil && same(last.alpha, p.Alpha) && same(last.eps, p.Epsilon) {
		return last.s
	}
	last := &identityOf{alpha: p.Alpha, eps: p.Epsilon, s: fmt.Sprintf("%s/a=%g,eps=%g", name, p.Alpha, p.Epsilon)}
	id.last.Store(last)
	return last.s
}

// buffers is the drains' free list of graph-length scratch: the
// residuals of every drain that does not hand them out, and the
// estimates LendFromSource lends. A buffer of an n-node graph holds
// n + hin.InLanes entries, the residuals' scratch slots included.
// blocks is the packed reverse drain's (reverseDrain.group): its
// interleaved residuals and estimates, w·(2n + hin.InLanes) entries for
// the drain's widest pass w, one block per batch in flight, which its
// 4- and 8-lane groups share.
var buffers, blocks freelist.List[Vector]

// borrow returns a zeroed buffer for an n-node graph from buffers. Give
// it back with buffers.Put.
func borrow(n int) Vector {
	v := take(&buffers, n+hin.InLanes)
	clear(v)
	return v
}

// take returns the buffer on top of l, not cleared, or a new one when
// that one does not hold size entries (it is dropped, not resized).
func take(l *freelist.List[Vector], size int) Vector {
	if v, ok := l.Get(); ok && len(v) == size {
		return v
	}
	return make(Vector, size)
}

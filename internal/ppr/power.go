package ppr

import (
	"context"
	"fmt"
	"math"

	"github.com/why-not-xai/emigre/internal/fmath"
	"github.com/why-not-xai/emigre/internal/hin"
)

// Power is the dense power-iteration engine: the exact reference
// implementation the push engines are validated against, for rows
// (FromSource) and columns (ToTarget) alike.
type Power struct {
	Params Params
	// MaxIter bounds the number of iterations.
	MaxIter int
	// Tol is the L1 convergence tolerance.
	Tol float64
}

// NewPower returns a power-iteration engine with the given parameters,
// a 500-iteration cap and an L1 tolerance of 1e-12.
func NewPower(p Params) *Power { return &Power{Params: p, MaxIter: 500, Tol: 1e-12} }

// Identity implements Identifier: power iteration's output depends on
// α, the convergence tolerance and the iteration cap.
func (e *Power) Identity() string {
	return fmt.Sprintf("power/a=%g,tol=%g,maxiter=%d", e.Params.Alpha, e.Tol, e.MaxIter)
}

// FromSource iterates p ← α·e_s + (1−α)·p·W until the L1 change drops
// below Tol. Each iteration is O(E).
func (e *Power) FromSource(g *hin.CSR, s hin.NodeID) (Vector, error) {
	return e.FromSourceContext(context.Background(), g, s)
}

// FromSourceContext is FromSource with cancellation: the context is
// checked once per power sweep and the iteration aborts with ctx.Err().
func (e *Power) FromSourceContext(ctx context.Context, g *hin.CSR, s hin.NodeID) (Vector, error) {
	if err := e.Params.Validate(); err != nil {
		return nil, err
	}
	if err := checkNode(g, s); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	alpha := e.Params.Alpha
	p := make(Vector, n)
	next := make(Vector, n)
	p[s] = 1 // start from e_s; converges to the same fixed point
	for iter := 0; iter < e.MaxIter; iter++ {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		if err := powerSweepSite.Hit(ctx); err != nil {
			return nil, err
		}
		for i := range next {
			next[i] = 0
		}
		next[s] = alpha
		for v := 0; v < n; v++ {
			mass := p[v]
			if fmath.Eq(mass, 0) {
				continue
			}
			total := g.OutWeightSum(hin.NodeID(v))
			if total <= 0 {
				continue // dangling: walk absorbed
			}
			scale := (1 - alpha) * mass / total
			for _, h := range g.OutSlice(hin.NodeID(v)) {
				next[h.Node] += scale * h.Weight
			}
		}
		var diff float64
		for i := range p {
			diff += math.Abs(next[i] - p[i])
		}
		p, next = next, p
		if diff < e.Tol {
			runsPower.Inc()
			powerIterations.Add(int64(iter) + 1)
			return p, nil
		}
	}
	return nil, fmt.Errorf("%w after %d iterations (source %d)", ErrNoConvergence, e.MaxIter, s)
}

// ToTarget iterates the column recursion c ← α·e_t + (1−α)·W·c, which
// follows from unrolling the first step of the walk:
//
//	PPR(s,t) = α·[s==t] + (1−α)·Σ_v W(s,v)·PPR(v,t)
func (e *Power) ToTarget(g *hin.CSR, t hin.NodeID) (Vector, error) {
	return e.ToTargetContext(context.Background(), g, t)
}

// ToTargetContext is ToTarget with cancellation: the context is checked
// once per power sweep and the iteration aborts with ctx.Err().
func (e *Power) ToTargetContext(ctx context.Context, g *hin.CSR, t hin.NodeID) (Vector, error) {
	if err := e.Params.Validate(); err != nil {
		return nil, err
	}
	if err := checkNode(g, t); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	alpha := e.Params.Alpha
	c := make(Vector, n)
	next := make(Vector, n)
	c[t] = alpha
	for iter := 0; iter < e.MaxIter; iter++ {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		if err := powerSweepSite.Hit(ctx); err != nil {
			return nil, err
		}
		for i := range next {
			next[i] = 0
		}
		next[t] = alpha
		for v := 0; v < n; v++ {
			total := g.OutWeightSum(hin.NodeID(v))
			if total <= 0 {
				continue
			}
			var acc float64
			for _, h := range g.OutSlice(hin.NodeID(v)) {
				acc += h.Weight * c[h.Node]
			}
			next[v] += (1 - alpha) * acc / total
		}
		var diff float64
		for i := range c {
			diff += math.Abs(next[i] - c[i])
		}
		c, next = next, c
		if diff < e.Tol {
			runsPower.Inc()
			powerIterations.Add(int64(iter) + 1)
			return c, nil
		}
	}
	return nil, fmt.Errorf("%w after %d iterations (target %d)", ErrNoConvergence, e.MaxIter, t)
}

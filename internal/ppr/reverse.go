package ppr

import (
	"context"
	"fmt"

	"github.com/why-not-xai/emigre/internal/hin"
	"github.com/why-not-xai/emigre/internal/obs"
)

// ReversePush is the Reverse Local Push engine (RLP, §3.2; Zhang,
// Lofgren & Goel, KDD'16). It explores the graph backward from a target
// node t, pushing mass over *incoming* edges, and estimates the whole
// column PPR(·,t): how much every possible source personalizes t. The
// invariant maintained is Eq. 4 of the paper:
//
//	PPR(s,t) = P(s,t) + Σ_x PPR(s,x)·R(x,t)   for every s
//
// EMiGRe's Add mode (Algorithm 2) runs RLP from the Why-Not item to
// enumerate candidate neighbors whose connection would lift it. One
// kernel (sweep) serves every entry point; a single column is its K = 1.
type ReversePush struct {
	Params Params
}

// NewReversePush returns a reverse-push engine with the given parameters.
func NewReversePush(p Params) *ReversePush { return &ReversePush{Params: p} }

// Name implements ReverseEngine.
func (e *ReversePush) Name() string { return "reverse-push" }

// Identity implements Identifier: the push loop's output depends on α
// and the residual threshold ε only.
func (e *ReversePush) Identity() string {
	return fmt.Sprintf("reverse-push/a=%g,eps=%g", e.Params.Alpha, e.Params.Epsilon)
}

// ToTarget returns the estimate vector of Run.
func (e *ReversePush) ToTarget(g hin.View, t hin.NodeID) (Vector, error) {
	return e.ToTargetContext(context.Background(), g, t)
}

// ToTargetContext is ToTarget with cancellation.
func (e *ReversePush) ToTargetContext(ctx context.Context, g hin.View, t hin.NodeID) (Vector, error) {
	cols, err := e.ToTargets(ctx, g, []hin.NodeID{t})
	if err != nil {
		return nil, err
	}
	return cols[0], nil
}

// ToTargets is ToTargetContext toward every target of ts in one blocked
// drain: each pass of the graph updates all len(ts) columns per in-edge.
// Column k is bit-identical to ToTarget(g, ts[k]) whatever else is in
// the batch (duplicated targets are computed once each) — so a cached
// column never depends on who it was computed with.
func (e *ReversePush) ToTargets(ctx context.Context, g hin.View, ts []hin.NodeID) ([]Vector, error) {
	p, _, _, err := e.sweep(ctx, g, ts)
	return p, err
}

// Run performs reverse local push toward t until all residuals are below
// Epsilon, returning estimates and residuals. Estimates[x] approximates
// PPR(x, t) with additive error bounded by Epsilon/α per the invariant.
func (e *ReversePush) Run(g hin.View, t hin.NodeID) (*PushResult, error) {
	return e.RunContext(context.Background(), g, t)
}

// RunContext is Run with cancellation.
func (e *ReversePush) RunContext(ctx context.Context, g hin.View, t hin.NodeID) (*PushResult, error) {
	p, r, pushes, err := e.sweep(ctx, g, []hin.NodeID{t})
	if err != nil {
		return nil, err
	}
	return &PushResult{Estimates: p[0], Residuals: r, Pushes: pushes[0]}, nil
}

// sweep is the reverse push kernel, K = len(ts) columns at once.
// Residuals live interleaved, r[v·K+k] for column k at node v, so one
// in-edge updates K adjacent floats; estimates are one Vector per column
// (written once per push, not per edge). Nodes are visited in ascending
// id and column k pushes at v iff r_k[v] > ε — the others contribute an
// exact +0 through a zero coefficient — until a whole sweep pushes
// nothing. Any push order keeps Eq. 4 and ends with every residual in
// [0, ε]; a column's trajectory depends only on its own residuals and
// the fixed node order, hence ToTargets' batch independence (DESIGN.md
// §3.1). The context is checked every ctxCheckInterval node visits.
func (e *ReversePush) sweep(ctx context.Context, g hin.View, ts []hin.NodeID) (p []Vector, r Vector, pushes []int, err error) {
	if err := e.Params.Validate(); err != nil {
		return nil, nil, nil, err
	}
	for _, t := range ts {
		if err := checkNode(g, t); err != nil {
			return nil, nil, nil, err
		}
	}
	// Reverse push walks in-rows, which a row patch cannot serve from
	// the shared arrays: NewCSR re-flattens a patched snapshot (no
	// production caller reverses over one) and flattens any other view.
	csr := hin.NewCSR(g)
	inStart, inSrc, inProb := csr.InRows()
	n, K := csr.NumNodes(), len(ts)
	alpha, eps := e.Params.Alpha, e.Params.Epsilon

	p = make([]Vector, K)
	r = make(Vector, n*K)
	for k, t := range ts {
		p[k] = make(Vector, n)
		r[int(t)*K+k] = 1
	}
	pushes = make([]int, K)
	coef := make([]float64, K) // (1−α)·r_k[v] for the columns pushing at v, else 0

	for active := K > 0; active; {
		active = false
		for lo := 0; lo < n; lo += ctxCheckInterval {
			if err := ctxErr(ctx); err != nil {
				return nil, nil, nil, err
			}
			if err := reverseLoopSite.Hit(ctx); err != nil {
				return nil, nil, nil, err
			}
			for v := lo; v < min(lo+ctxCheckInterval, n); v++ {
				rv := r[v*K : v*K+K]
				push := false
				for k, x := range rv {
					coef[k] = 0
					if x > eps {
						rv[k] = 0
						p[k][v] += alpha * x
						pushes[k]++
						coef[k] = (1 - alpha) * x
						push = true
					}
				}
				if !push {
					continue
				}
				active = true
				// In-edge i is (src[i] -> v), taken with probability prob[i].
				src := inSrc[inStart[v]:inStart[v+1]]
				prob := inProb[inStart[v]:][:len(src)]
				for i, x := range src {
					w := prob[i]
					rx := r[int(x)*K:][:len(coef)]
					for k, c := range coef {
						rx[k] += c * w
					}
				}
			}
		}
	}
	if obs.Enabled() {
		for k := range ts {
			var mass float64
			for v := 0; v < n; v++ {
				mass += r[v*K+k]
			}
			runsReverse.Inc()
			pushesReverse.Add(int64(pushes[k]))
			residualMassReverse.Observe(mass)
		}
	}
	return p, r, pushes, nil
}

package ppr

import (
	"context"
	"fmt"

	"github.com/why-not-xai/emigre/internal/hin"
)

// ForwardPush is the Forward Local Push engine (FLP, §3.2 of the paper;
// Zhang, Lofgren & Goel, KDD'16). It explores the graph outward from the
// source node, maintaining per-node estimates P and residuals R with the
// invariant of Eq. 3:
//
//	PPR(s,t) = P(s,t) + Σ_x R(s,x)·PPR(x,t)   for every t
//
// The push loop terminates once every residual is below Epsilon, so each
// estimate is within Epsilon·n of the true score (and usually far
// closer). The returned estimate vector alone is the usual result;
// PushResult additionally exposes the residuals so tests can verify the
// invariant.
type ForwardPush struct {
	Params Params
}

// NewForwardPush returns a forward-push engine with the given parameters.
func NewForwardPush(p Params) *ForwardPush { return &ForwardPush{Params: p} }

// Name implements Engine.
func (e *ForwardPush) Name() string { return "forward-push" }

// Identity implements Identifier: the push loop's output depends on α
// and the residual threshold ε only.
func (e *ForwardPush) Identity() string {
	return fmt.Sprintf("forward-push/a=%g,eps=%g", e.Params.Alpha, e.Params.Epsilon)
}

// PushResult carries the estimate and residual vectors of a local-push
// run, plus the number of individual pushes performed.
type PushResult struct {
	Estimates Vector
	Residuals Vector
	Pushes    int
}

// FromSource returns the estimate vector of Run.
func (e *ForwardPush) FromSource(g hin.View, s hin.NodeID) (Vector, error) {
	return e.FromSourceContext(context.Background(), g, s)
}

// FromSourceContext is FromSource with cancellation: the context is
// checked every push batch and the loop aborts with ctx.Err().
func (e *ForwardPush) FromSourceContext(ctx context.Context, g hin.View, s hin.NodeID) (Vector, error) {
	res, err := e.RunContext(ctx, g, s)
	if err != nil {
		return nil, err
	}
	return res.Estimates, nil
}

// Run performs forward local push from s until all residuals are below
// Epsilon, returning estimates and residuals.
func (e *ForwardPush) Run(g hin.View, s hin.NodeID) (*PushResult, error) {
	return e.RunContext(context.Background(), g, s)
}

// RunContext is Run with cancellation, checked every ctxCheckInterval
// queue steps.
func (e *ForwardPush) RunContext(ctx context.Context, g hin.View, s hin.NodeID) (*PushResult, error) {
	if err := e.Params.Validate(); err != nil {
		return nil, err
	}
	if err := checkNode(g, s); err != nil {
		return nil, err
	}
	csr := flatten(g)
	n := csr.NumNodes()
	alpha := e.Params.Alpha
	eps := e.Params.Epsilon

	p := make(Vector, n)
	r := make(Vector, n)
	r[s] = 1

	queue := newNodeQueue(n)
	inQueue := make([]bool, n)
	queue.push(s)
	inQueue[s] = true
	pushes := 0

	steps := 0
	for !queue.empty() {
		if steps%ctxCheckInterval == 0 {
			if err := ctxErr(ctx); err != nil {
				return nil, err
			}
			if err := forwardLoopSite.Hit(ctx); err != nil {
				return nil, err
			}
		}
		steps++
		v := queue.pop()
		inQueue[v] = false
		rv := r[v]
		if rv <= eps {
			continue
		}
		r[v] = 0
		p[v] += alpha * rv
		pushes++
		total := csr.OutWeightSum(v)
		if total <= 0 {
			continue // dangling: remaining mass absorbed
		}
		scale := (1 - alpha) * rv / total
		for _, h := range csr.OutSlice(v) {
			r[h.Node] += scale * h.Weight
			if r[h.Node] > eps && !inQueue[h.Node] {
				queue.push(h.Node)
				inQueue[h.Node] = true
			}
		}
	}
	res := &PushResult{Estimates: p, Residuals: r, Pushes: pushes}
	recordPush(runsForward, pushesForward, residualMassForward, res)
	return res, nil
}

package ppr

import (
	"context"
	"fmt"

	"github.com/why-not-xai/emigre/internal/hin"
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
// enumerate candidate neighbors whose connection would lift it.
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

// ToTargetContext is ToTarget with cancellation: the context is checked
// every push batch and the loop aborts with ctx.Err().
func (e *ReversePush) ToTargetContext(ctx context.Context, g hin.View, t hin.NodeID) (Vector, error) {
	res, err := e.RunContext(ctx, g, t)
	if err != nil {
		return nil, err
	}
	return res.Estimates, nil
}

// Run performs reverse local push toward t until all residuals are below
// Epsilon, returning estimates and residuals. Estimates[x] approximates
// PPR(x, t) with additive error bounded by Epsilon/α per the invariant.
func (e *ReversePush) Run(g hin.View, t hin.NodeID) (*PushResult, error) {
	return e.RunContext(context.Background(), g, t)
}

// RunContext is Run with cancellation, checked every ctxCheckInterval
// queue steps.
func (e *ReversePush) RunContext(ctx context.Context, g hin.View, t hin.NodeID) (*PushResult, error) {
	if err := e.Params.Validate(); err != nil {
		return nil, err
	}
	if err := checkNode(g, t); err != nil {
		return nil, err
	}
	// Reverse push walks in-rows, which a row patch cannot serve from
	// the shared arrays: NewCSR re-flattens a patched snapshot (no
	// production caller reverses over one) and flattens any other view.
	csr := hin.NewCSR(g)
	outSum := csr.OutWeightSums()
	n := csr.NumNodes()
	alpha := e.Params.Alpha
	eps := e.Params.Epsilon

	p := make(Vector, n)
	r := make(Vector, n)
	r[t] = 1

	queue := newNodeQueue(n)
	inQueue := make([]bool, n)
	queue.push(t)
	inQueue[t] = true
	pushes := 0

	steps := 0
	for !queue.empty() {
		if steps%ctxCheckInterval == 0 {
			if err := ctxErr(ctx); err != nil {
				return nil, err
			}
			if err := reverseLoopSite.Hit(ctx); err != nil {
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
		for _, h := range csr.InSlice(v) {
			// h.Node is the source x of edge (x -> v); the transition
			// probability W(x,v) uses x's outgoing weight sum.
			total := outSum[h.Node]
			if total <= 0 {
				continue
			}
			r[h.Node] += (1 - alpha) * rv * h.Weight / total
			if r[h.Node] > eps && !inQueue[h.Node] {
				queue.push(h.Node)
				inQueue[h.Node] = true
			}
		}
	}
	res := &PushResult{Estimates: p, Residuals: r, Pushes: pushes}
	recordPush(runsReverse, pushesReverse, residualMassReverse, res)
	return res, nil
}

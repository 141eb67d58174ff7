package ppr

import (
	"context"
	"fmt"

	"github.com/why-not-xai/emigre/internal/fault"
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
// invariant. One kernel (sweep) drains both the cold run and the
// warm-started one (UpdateForEdit).
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
// checked every ctxCheckInterval node visits and the drain aborts with
// ctx.Err().
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
// node visits of the sweep.
func (e *ForwardPush) RunContext(ctx context.Context, g hin.View, s hin.NodeID) (*PushResult, error) {
	return e.RunUntil(ctx, g, s, nil)
}

// StopTest is read between the sweeps of a drain with its live estimates
// p and residuals r, between which Eq. 3 holds; true ends the drain
// there. It must only read the two vectors.
type StopTest func(p, r Vector) bool

// RunUntil is RunContext that may stop early: after every sweep that
// pushed, done decides whether the drain ends before every residual is
// below Epsilon. A stopped result keeps Eq. 3 but not the ε contract:
// its estimates are lower bounds, not ε-accurate scores. A nil done
// drains to ε like RunContext.
func (e *ForwardPush) RunUntil(ctx context.Context, g hin.View, s hin.NodeID, done StopTest) (*PushResult, error) {
	if err := e.Params.Validate(); err != nil {
		return nil, err
	}
	if err := checkNode(g, s); err != nil {
		return nil, err
	}
	csr := flatten(g)
	n := csr.NumNodes()
	p := make(Vector, n)
	r := make(Vector, n)
	r[s] = 1
	pushes, err := e.sweep(ctx, forwardLoopSite, csr, p, r, done)
	if err != nil {
		return nil, err
	}
	res := &PushResult{Estimates: p, Residuals: r, Pushes: pushes}
	recordPush(runsForward, pushesForward, residualMassForward, res)
	return res, nil
}

// sweep is the forward push kernel: it drains p and r in place over csr.
// Nodes are visited in ascending id and v pushes iff |r[v]| > ε, until a
// whole sweep pushes nothing or done, read after every sweep that
// pushed, says stop. A cold run's residuals never go negative,
// so there the rule is r[v] > ε; a warm start's repaired residuals may,
// and the push rule is linear in them. Any push order keeps Eq. 3, so the
// drain ends with every |residual| ≤ ε whatever order it took (DESIGN.md
// §3.1). The context and site are polled every ctxCheckInterval node
// visits.
func (e *ForwardPush) sweep(ctx context.Context, site *fault.Site, csr *hin.CSR, p, r Vector, done StopTest) (int, error) {
	n := csr.NumNodes()
	alpha, eps := e.Params.Alpha, e.Params.Epsilon
	pushes := 0
	for active := true; active; {
		if pushes > 0 && done != nil && done(p, r) {
			break
		}
		active = false
		for lo := 0; lo < n; lo += ctxCheckInterval {
			if err := ctxErr(ctx); err != nil {
				return pushes, err
			}
			if err := site.Hit(ctx); err != nil {
				return pushes, err
			}
			for v := lo; v < min(lo+ctxCheckInterval, n); v++ {
				rv := r[v]
				if abs(rv) <= eps {
					continue
				}
				active = true
				r[v] = 0
				p[v] += alpha * rv
				pushes++
				total := csr.OutWeightSum(hin.NodeID(v))
				if total <= 0 {
					continue // dangling: remaining mass absorbed
				}
				scale := (1 - alpha) * rv / total
				for _, h := range csr.OutSlice(hin.NodeID(v)) {
					r[h.Node] += scale * h.Weight
				}
			}
		}
	}
	return pushes, nil
}

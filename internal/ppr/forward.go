package ppr

import (
	"context"
	"math"

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
// The push loop terminates once every residual is at most Epsilon in
// absolute value, so each estimate is within Params.ForwardErr of the
// exact score on either side: |PPR(s,t) − P(s,t)| ≤ ε·Σ_x PPR(x,t). The
// returned estimate vector alone is the usual result; PushResult
// additionally exposes the residuals so tests can verify the invariant.
// One kernel (sweep) drains both the cold run and the warm-started one
// (UpdateForEdit).
type ForwardPush struct {
	Params Params
	id     identity
}

// NewForwardPush returns a forward-push engine with the given parameters.
func NewForwardPush(p Params) *ForwardPush { return &ForwardPush{Params: p} }

// Identity implements Identifier: the push loop's output depends on α
// and the residual threshold ε only.
func (e *ForwardPush) Identity() string { return e.id.of("forward-push", e.Params) }

// PushResult carries the estimate and residual vectors of a local-push
// run, plus the number of individual pushes performed.
type PushResult struct {
	Estimates Vector
	Residuals Vector
	Pushes    int
}

// FromSourceContext returns the estimates of RunContext: the context
// is checked every ctxCheckInterval node visits and the drain aborts
// with ctx.Err(). Only the estimates are allocated; the residuals are
// borrowed scratch.
func (e *ForwardPush) FromSourceContext(ctx context.Context, g *hin.CSR, s hin.NodeID) (Vector, error) {
	if err := e.check(g, s); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	p, r := make(Vector, n), borrow(n)
	defer buffers.Put(r)
	if _, err := e.drain(ctx, g, s, p, r); err != nil {
		return nil, err
	}
	return p, nil
}

// LendFromSource drains from s like FromSourceContext and lends the
// estimates to use, taking them back when use returns: use must not
// keep them, or any slice of them. Both the estimates and the residuals
// are borrowed scratch, so a drain whose scores serve one reading
// allocates nothing graph-sized. Nothing hands back a vector that
// another entry point returned, so a cached vector is never reused.
func (e *ForwardPush) LendFromSource(ctx context.Context, g *hin.CSR, s hin.NodeID, use func(Vector)) error {
	if err := e.check(g, s); err != nil {
		return err
	}
	n := g.NumNodes()
	p, r := borrow(n), borrow(n)
	defer buffers.Put(p)
	defer buffers.Put(r)
	if _, err := e.drain(ctx, g, s, p[:n], r); err != nil {
		return err
	}
	use(p[:n])
	return nil
}

// RunContext performs forward local push from s over g until every
// residual is at most Epsilon in absolute value, returning estimates
// and residuals. Residuals may end negative, so Eq. 3 leaves each
// estimate within ε·C(t) of the exact PPR(s, t) on either side,
// C(t) = Σ_x PPR(x,t): |PPR(s,t) − Estimates[t]| ≤
// Params.ForwardErr(C(t)). The context is checked every
// ctxCheckInterval node visits of the sweep. It hands its residuals
// out, so it allocates them.
func (e *ForwardPush) RunContext(ctx context.Context, g *hin.CSR, s hin.NodeID) (*PushResult, error) {
	if err := e.check(g, s); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	p, r := make(Vector, n), make(Vector, n+hin.InLanes)
	pushes, err := e.drain(ctx, g, s, p, r)
	if err != nil {
		return nil, err
	}
	return &PushResult{Estimates: p, Residuals: r[:n], Pushes: pushes}, nil
}

// check validates the parameters and s.
func (e *ForwardPush) check(g *hin.CSR, s hin.NodeID) error {
	if err := e.Params.Validate(); err != nil {
		return err
	}
	return checkNode(g, s)
}

// drain runs the forward sweep from e_s over csr into p and r, which
// must hold zeros (r with its hin.InLanes scratch slots), and tallies
// the run.
func (e *ForwardPush) drain(ctx context.Context, csr *hin.CSR, s hin.NodeID, p, r Vector) (int, error) {
	r[s] = 1
	pushes, err := e.sweep(ctx, forwardLoopSite, csr, p, r)
	if err != nil {
		return 0, err
	}
	recordPush(runsForward, pushesForward, residualMassForward, pushes, r[:csr.NumNodes()])
	return pushes, nil
}

// sweep is the forward driver: it drains p and r in place over csr, r
// carrying hin.InLanes scratch slots past its n real entries. Nodes are
// visited in ascending id and v pushes iff |r[v]| > ε, moving
// δ = ω·r[v]: off r[v], α·δ into its estimate and (1−α)·δ·W(v,y) onto
// every out-neighbour y, until a whole sweep pushes nothing. ω starts at
// relaxation(α) and drops to 1 for the rest of the drain at the first
// push whose |r| exceeds twice the largest |r| pushed in the previous
// sweep (in the first, twice the largest at entry), at the end of the
// first sweep whose pushed Σ|r| does not shrink, or after relaxedSweeps
// sweeps (DESIGN.md §3.1). Eq. 3 is linear in δ, so any ω and any push
// order keep it, and the drain ends with every |residual| ≤ ε. The
// pushes are kernel.body's over the padded out-rows; a row-patched
// snapshot's patched node is pushed over its own row (hin.CSR.PatchedRow)
// by a body call of its own, between the calls for the nodes before and
// after it. The context and site are polled every ctxCheckInterval node
// visits.
func (e *ForwardPush) sweep(ctx context.Context, site *fault.Site, csr *hin.CSR, p, r Vector) (int, error) {
	n := csr.NumNodes()
	start, dst, prob := csr.OutRows()
	u, udst, uprob := csr.PatchedRow()
	urow := [2]int32{0, int32(len(udst))}
	r = r[:n+hin.InLanes] // the scratch slots the body's pad lanes write
	k := kernel{alpha: e.Params.Alpha, eps: e.Params.Epsilon, p: p, r: r}
	omega := relaxation(k.alpha)
	var bar float64
	for _, x := range r[:n] {
		bar = max(bar, abs(x))
	}
	bar, mass := 2*bar, math.Inf(1)
	for sweep := 1; ; sweep++ {
		peak := 0.0
		k.pushed = 0
		for lo := 0; lo < n; lo += ctxCheckInterval {
			if err := ctxErr(ctx); err != nil {
				return k.pushes, err
			}
			if err := site.Hit(ctx); err != nil {
				return k.pushes, err
			}
			from, hi := lo, min(lo+ctxCheckInterval, n)
			if v := int(u); from <= v && v < hi {
				peak, omega = k.body(start[from:v+1], dst, prob, from, omega, peak, bar)
				peak, omega = k.body(urow[:], udst, uprob, v, omega, peak, bar)
				from = v + 1
			}
			peak, omega = k.body(start[from:hi+1], dst, prob, from, omega, peak, bar)
		}
		if peak <= 0 { // every push reads some |r| > ε
			return k.pushes, nil
		}
		if k.pushed >= mass || sweep >= relaxedSweeps {
			omega = 1
		}
		bar, mass = 2*peak, k.pushed
	}
}

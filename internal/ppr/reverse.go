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
	// general routes every batch through sweep's general body, the
	// reference its K = 1 and K = 2 bodies are tested against. Set only
	// from _test.go files.
	general bool
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
//
// K = 1 (every single column) and K = 2 (the session pair, a learned
// winner with PPR(·,u)) run dedicated bodies: the same visits, pushes and
// arithmetic as the general one, without its per-column inner loop.
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

	p = make([]Vector, K)
	r = make(Vector, n*K)
	for k, t := range ts {
		p[k] = make(Vector, n)
		r[int(t)*K+k] = 1
	}
	pushes = make([]int, K)
	d := reverseDrain{inStart: inStart, inSrc: inSrc, inProb: inProb,
		alpha: e.Params.Alpha, eps: e.Params.Epsilon, p: p, r: r, pushes: pushes}
	switch {
	case K == 0:
	case K == 1 && !e.general:
		err = d.sweep(ctx, d.body1)
	case K == 2 && !e.general:
		err = d.sweep(ctx, d.body2)
	default:
		d.coef = make([]float64, K)
		err = d.sweep(ctx, d.bodyK)
	}
	if err != nil {
		return nil, nil, nil, err
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

// reverseDrain is one batch's state inside sweep: the in-rows it walks
// (in-edge i of v is (src[i] -> v), taken with probability prob[i]) and
// the vectors it drains.
type reverseDrain struct {
	inStart    []int32
	inSrc      []hin.NodeID
	inProb     []float64
	alpha, eps float64
	p          []Vector
	r          Vector
	pushes     []int
	coef       []float64 // bodyK: (1−α)·r_k[v] for the columns pushing at v, else 0
}

// sweep repeats ascending-id sweeps over every node until one pushes
// nothing, polling the context and the failpoint every ctxCheckInterval
// visits. body drains the nodes [lo, hi) and reports whether any column
// pushed there.
func (d *reverseDrain) sweep(ctx context.Context, body func(lo, hi int) bool) error {
	n := len(d.inStart) - 1
	for active := true; active; {
		active = false
		for lo := 0; lo < n; lo += ctxCheckInterval {
			if err := ctxErr(ctx); err != nil {
				return err
			}
			if err := reverseLoopSite.Hit(ctx); err != nil {
				return err
			}
			if body(lo, min(lo+ctxCheckInterval, n)) {
				active = true
			}
		}
	}
	return nil
}

// bodyK is the general body: column k pushes at v iff r_k[v] > ε, and
// every column's coefficient — zero where it did not push — is applied
// to each in-edge of v.
func (d *reverseDrain) bodyK(lo, hi int) (active bool) {
	inStart, inSrc, inProb := d.inStart, d.inSrc, d.inProb
	alpha, eps, p, r, pushes, coef := d.alpha, d.eps, d.p, d.r, d.pushes, d.coef
	K := len(coef)
	for v := lo; v < hi; v++ {
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
		src := inSrc[inStart[v]:inStart[v+1]]
		prob := inProb[inStart[v]:][:len(src)]
		for i, x := range src {
			w := prob[i]
			rx := r[int(x)*K:][:K]
			for k, c := range coef {
				rx[k] += c * w
			}
		}
	}
	return active
}

// body1 is bodyK at K = 1.
func (d *reverseDrain) body1(lo, hi int) (active bool) {
	inStart, inSrc, inProb := d.inStart, d.inSrc, d.inProb
	alpha, eps, p, r := d.alpha, d.eps, d.p[0], d.r
	pushes := 0
	for v := lo; v < hi; v++ {
		rv := r[v]
		if rv <= eps {
			continue
		}
		r[v] = 0
		p[v] += alpha * rv
		pushes++
		active = true
		c := (1 - alpha) * rv
		src := inSrc[inStart[v]:inStart[v+1]]
		prob := inProb[inStart[v]:][:len(src)]
		for i, x := range src {
			r[x] += c * prob[i]
		}
	}
	d.pushes[0] += pushes
	return active
}

// body2 is bodyK at K = 2: a column that does not push at v keeps a zero
// coefficient and adds an exact +0 per in-edge, as in bodyK.
func (d *reverseDrain) body2(lo, hi int) (active bool) {
	inStart, inSrc, inProb := d.inStart, d.inSrc, d.inProb
	alpha, eps, p0, p1, r := d.alpha, d.eps, d.p[0], d.p[1], d.r
	n0, n1 := 0, 0
	for v := lo; v < hi; v++ {
		x0, x1 := r[2*v], r[2*v+1]
		var c0, c1 float64
		push := false
		if x0 > eps {
			r[2*v] = 0
			p0[v] += alpha * x0
			n0++
			c0 = (1 - alpha) * x0
			push = true
		}
		if x1 > eps {
			r[2*v+1] = 0
			p1[v] += alpha * x1
			n1++
			c1 = (1 - alpha) * x1
			push = true
		}
		if !push {
			continue
		}
		active = true
		src := inSrc[inStart[v]:inStart[v+1]]
		prob := inProb[inStart[v]:][:len(src)]
		for i, x := range src {
			w := prob[i]
			rx := r[2*int(x):][:2]
			rx[0] += c0 * w
			rx[1] += c1 * w
		}
	}
	d.pushes[0] += n0
	d.pushes[1] += n1
	return active
}

package ppr

import (
	"context"

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
// kernel (reverseDrain.column) serves every entry point.
type ReversePush struct {
	Params Params
	id     identity
}

// NewReversePush returns a reverse-push engine with the given parameters.
func NewReversePush(p Params) *ReversePush { return &ReversePush{Params: p} }

// Name implements ReverseEngine.
func (e *ReversePush) Name() string { return "reverse-push" }

// Identity implements Identifier: the push loop's output depends on α
// and the residual threshold ε only.
func (e *ReversePush) Identity() string { return e.id.of("reverse-push", e.Params) }

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

// ToTargets is ToTargetContext toward every target of ts, one column
// after another over one borrowed residual vector. Column k is
// bit-identical to ToTarget(g, ts[k]) whatever else is in the batch
// (duplicated targets are computed once each) — so a cached column
// never depends on who it was computed with. No targets touch nothing.
func (e *ReversePush) ToTargets(ctx context.Context, g hin.View, ts []hin.NodeID) ([]Vector, error) {
	if len(ts) == 0 {
		return nil, nil
	}
	d, err := e.drain(g, ts)
	if err != nil {
		return nil, err
	}
	d.r = borrow(d.n())
	defer buffers.Put(d.r)
	cols := make([]Vector, len(ts))
	for k, t := range ts {
		if cols[k], _, err = d.column(ctx, t); err != nil {
			return nil, err
		}
	}
	return cols, nil
}

// Run performs reverse local push toward t until every residual is at
// most Epsilon in absolute value, returning estimates and residuals.
// Residuals may end negative, so Eq. 4 leaves each estimate within ε of
// the exact PPR(x, t) on either side: |PPR(x,t) − Estimates[x]| ≤
// Params.ColumnErr().
func (e *ReversePush) Run(g hin.View, t hin.NodeID) (*PushResult, error) {
	return e.RunContext(context.Background(), g, t)
}

// RunContext is Run with cancellation.
func (e *ReversePush) RunContext(ctx context.Context, g hin.View, t hin.NodeID) (*PushResult, error) {
	d, err := e.drain(g, []hin.NodeID{t})
	if err != nil {
		return nil, err
	}
	d.r = make(Vector, d.n()+hin.InLanes) // handed out: not borrowed
	p, pushes, err := d.column(ctx, t)
	if err != nil {
		return nil, err
	}
	return &PushResult{Estimates: p, Residuals: d.r[:len(p)], Pushes: pushes}, nil
}

// reverseDrain is the reverse driver's state: the push kernel and the
// padded in-rows it walks (hin.CSR.InRows: in-edge i of v is
// (src[i] -> v), taken with probability prob[i]).
type reverseDrain struct {
	kernel
	inStart []int32
	inSrc   []hin.NodeID
	inProb  []float64
}

// drain validates the parameters and every target of ts, then sets up a
// drain over g's in-rows; the caller supplies its residuals, d.n() +
// hin.InLanes entries. Reverse push walks in-rows, which a row patch
// cannot serve from the shared arrays: NewCSR re-flattens a patched
// snapshot (no production caller reverses over one) and flattens any
// other view.
func (e *ReversePush) drain(g hin.View, ts []hin.NodeID) (reverseDrain, error) {
	if err := e.Params.Validate(); err != nil {
		return reverseDrain{}, err
	}
	for _, t := range ts {
		if err := checkNode(g, t); err != nil {
			return reverseDrain{}, err
		}
	}
	csr := hin.NewCSR(g)
	inStart, inSrc, inProb := csr.InRows()
	return reverseDrain{inStart: inStart, inSrc: inSrc, inProb: inProb,
		kernel: kernel{alpha: e.Params.Alpha, eps: e.Params.Epsilon}}, nil
}

// n is the node count of the drained graph.
func (d *reverseDrain) n() int { return len(d.inStart) - 1 }

// column drains PPR(·,t) from r = e_t and returns its estimates and push
// count; r is left holding the column's terminal residuals. Nodes are
// visited in ascending id and v pushes iff |r[v]| > ε, moving δ = ω·r[v]:
// off r[v], α·δ into its estimate and (1−α)·δ·W(x,v) onto every
// in-neighbour x, until a whole sweep pushes nothing. ω = relaxation(α)
// drops to 1 for good at the first push whose |r| exceeds the largest of
// the previous sweep (of the first, (1−α)·ω: one hop of the unit
// residual) or after relaxedSweeps sweeps (DESIGN.md §3.1). Eq. 4 is
// linear in δ, so any ω keeps it, and the column ends with every
// |residual| ≤ ε. The pushes are kernel.body's over the padded in-rows.
// A column's trajectory depends only on t and the fixed node order,
// hence ToTargets' batch independence. The context and the
// ppr.reverse.loop failpoint are polled every ctxCheckInterval node
// visits.
func (d *reverseDrain) column(ctx context.Context, t hin.NodeID) (p Vector, pushes int, err error) {
	n := d.n()
	clear(d.r)
	d.r[t] = 1
	d.p, d.pushes = make(Vector, n), 0
	omega := relaxation(d.alpha)
	bar := (1 - d.alpha) * omega
	for sweep := 1; ; sweep++ {
		peak := 0.0
		for lo := 0; lo < n; lo += ctxCheckInterval {
			if err := ctxErr(ctx); err != nil {
				return nil, 0, err
			}
			if err := reverseLoopSite.Hit(ctx); err != nil {
				return nil, 0, err
			}
			hi := min(lo+ctxCheckInterval, n)
			peak, omega = d.body(d.inStart[lo:hi+1], d.inSrc, d.inProb, lo, omega, peak, bar)
		}
		if peak <= 0 { // every push reads some |r| > ε
			break
		}
		if sweep >= relaxedSweeps {
			omega = 1
		}
		bar = peak
	}
	if obs.Enabled() {
		var mass float64
		for _, x := range d.r[:n] {
			mass += abs(x)
		}
		runsReverse.Inc()
		pushesReverse.Add(int64(d.pushes))
		residualMassReverse.Observe(mass)
	}
	return d.p, d.pushes, nil
}

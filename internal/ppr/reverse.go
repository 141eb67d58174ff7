package ppr

import (
	"context"
	"fmt"
	"math"
	"unsafe"

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

// ToTargets is ToTargetContext toward every target of ts, one column
// after another over one residual vector. Column k is bit-identical to
// ToTarget(g, ts[k]) whatever else is in the batch (duplicated targets
// are computed once each) — so a cached column never depends on who it
// was computed with. No targets touch nothing.
func (e *ReversePush) ToTargets(ctx context.Context, g hin.View, ts []hin.NodeID) ([]Vector, error) {
	if len(ts) == 0 {
		return nil, nil
	}
	d, err := e.drain(g, ts)
	if err != nil {
		return nil, err
	}
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
	p, pushes, err := d.column(ctx, t)
	if err != nil {
		return nil, err
	}
	return &PushResult{Estimates: p, Residuals: d.r[:len(p)], Pushes: pushes}, nil
}

// reverseDrain is the reverse push kernel's state: the padded in-rows it
// walks (hin.CSR.InRows: in-edge i of v is (src[i] -> v), taken with
// probability prob[i]) and one residual vector of n+hin.InLanes entries,
// the last hin.InLanes the pad lanes' scratch slots, which stay 0.
type reverseDrain struct {
	inStart    []int32
	inSrc      []hin.NodeID
	inProb     []float64
	alpha, eps float64
	p, r       Vector
	pushes     int
}

// drain validates the parameters and every target of ts, then sets up a
// drain over g's in-rows. Reverse push walks in-rows, which a row patch
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
		alpha: e.Params.Alpha, eps: e.Params.Epsilon,
		r: make(Vector, csr.NumNodes()+hin.InLanes)}, nil
}

// column drains PPR(·,t) from r = e_t and returns its estimates and push
// count; r is left holding the column's terminal residuals. Nodes are
// visited in ascending id and v pushes iff |r[v]| > ε, moving δ = ω·r[v]:
// off r[v], α·δ into its estimate and (1−α)·δ·W(x,v) onto every
// in-neighbour x, until a whole sweep pushes nothing. ω = relaxation(α)
// drops to 1 for good at the first push whose |r| exceeds the largest of
// the previous sweep (of the first, (1−α)·ω: one hop of the unit
// residual) or after relaxedSweeps sweeps (DESIGN.md §3.1). Eq. 4 is
// linear in δ, so any ω keeps it, and the column ends with every
// |residual| ≤ ε. A column's trajectory depends only on t and the fixed
// node order, hence ToTargets' batch independence. The context and the
// ppr.reverse.loop failpoint are polled every ctxCheckInterval node
// visits.
func (d *reverseDrain) column(ctx context.Context, t hin.NodeID) (p Vector, pushes int, err error) {
	n := len(d.inStart) - 1
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
			if peak = d.body(lo, min(lo+ctxCheckInterval, n), omega, peak, bar); peak > bar {
				omega = 1
			}
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

// relaxedSweeps bounds the sweeps a drain — a reverse column or a
// forward run — pushes at ω > 1 while its other guards hold: 4× the
// 14–16 sweeps of a Lite-graph drain.
const relaxedSweeps = 64

// relaxation is both drains' over-relaxation factor: Young's SOR
// optimum ω* = 2/(1 + √(1 − ρ²)) for the Jacobi radius ρ = 1 − α of a
// push (Eq. 3 and Eq. 4 alike), 1.31 at α = 0.15.
func relaxation(alpha float64) float64 {
	return 2 / (1 + math.Sqrt(1-(1-alpha)*(1-alpha)))
}

// body unrolls exactly four lanes: this fails to compile unless
// hin.InLanes is 4.
var _ = [1]struct{}{}[hin.InLanes-4]

const (
	idSize    = unsafe.Sizeof(hin.NodeID(0))
	floatSize = unsafe.Sizeof(float64(0))
)

// body drains the nodes [lo, hi) at relaxation omega, which it drops to
// 1 at the first push whose |r| exceeds bar, and returns the largest |r|
// it pushed, or peak if that is larger. It walks each pushing node's
// in-row four lanes at a time without bounds checks: NewCSR's invariant
// (hin.CSR.InRows) keeps every row a whole number of lane groups and
// every source below len(r), and a pad lane adds c·0 = +0 to a scratch
// slot, so the real lanes see exactly the multiply-adds, in exactly the
// order, of an unpadded loop. At omega = 1, δ is r[v] itself and
// r[v] − δ is +0.
func (d *reverseDrain) body(lo, hi int, omega, peak, bar float64) float64 {
	inStart, alpha, eps, p, r := d.inStart, d.alpha, d.eps, d.p, d.r
	src := unsafe.Pointer(unsafe.SliceData(d.inSrc))
	prob := unsafe.Pointer(unsafe.SliceData(d.inProb))
	res := unsafe.Pointer(unsafe.SliceData(r))
	at := func(x hin.NodeID) *float64 { return (*float64)(unsafe.Add(res, uintptr(x)*floatSize)) }
	pushes := 0
	for v := lo; v < hi; v++ {
		rv := r[v]
		a := math.Abs(rv)
		if a <= eps {
			continue
		}
		if a > peak {
			if peak = a; peak > bar {
				omega = 1
			}
		}
		delta := omega * rv
		r[v] = rv - delta
		p[v] += alpha * delta
		pushes++
		c := (1 - alpha) * delta
		for i, end := uintptr(inStart[v]), uintptr(inStart[v+1]); i < end; i += 4 {
			x := (*[4]hin.NodeID)(unsafe.Add(src, i*idSize))
			w := (*[4]float64)(unsafe.Add(prob, i*floatSize))
			x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
			w0, w1, w2, w3 := w[0], w[1], w[2], w[3]
			*at(x0) += c * w0
			*at(x1) += c * w1
			*at(x2) += c * w2
			*at(x3) += c * w3
		}
	}
	d.pushes += pushes
	return peak
}

package ppr

import (
	"context"
	"errors"
	"fmt"
	"slices"
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
	id     identity

	// scalar is a test seam, set only from _test.go files: it drains
	// every column through kernel.body, as on a CPU without AVX2.
	scalar bool
}

// NewReversePush returns a reverse-push engine with the given parameters.
func NewReversePush(p Params) *ReversePush { return &ReversePush{Params: p} }

// Identity implements Identifier: the push loop's output depends on α
// and the residual threshold ε only.
func (e *ReversePush) Identity() string { return e.id.of("reverse-push", e.Params) }

// ToTargetContext returns the estimates of RunContext, aborting with
// ctx.Err() once ctx is done.
func (e *ReversePush) ToTargetContext(ctx context.Context, g *hin.CSR, t hin.NodeID) (Vector, error) {
	cols, err := e.ToTargets(ctx, g, []hin.NodeID{t})
	if err != nil {
		return nil, err
	}
	return cols[0], nil
}

// ToTargets is ToTargetContext toward every target of ts. Column k is
// bit-identical to ToTargetContext(ctx, g, ts[k]) whatever else is in
// the batch (duplicated targets are computed once each) — so a cached
// column never depends on who it was computed with. No targets touch
// nothing.
// Where the CPU has AVX2 the batch drains four columns at a time
// through the packed body (columns).
func (e *ReversePush) ToTargets(ctx context.Context, g *hin.CSR, ts []hin.NodeID) ([]Vector, error) {
	if len(ts) == 0 {
		return nil, nil
	}
	d, err := e.drain(g, ts)
	if err != nil {
		return nil, err
	}
	cols := make([]Vector, len(ts))
	if err := d.columns(ctx, ts, cols, nil); err != nil {
		return nil, err
	}
	return cols, nil
}

// RunContext performs reverse local push toward t over g until every
// residual is at most Epsilon in absolute value, returning estimates
// and residuals, or ctx.Err() once ctx is done. Residuals may end
// negative, so Eq. 4 leaves each estimate within ε of the exact
// PPR(x, t) on either side: |PPR(x,t) − Estimates[x]| ≤
// Params.ColumnErr().
func (e *ReversePush) RunContext(ctx context.Context, g *hin.CSR, t hin.NodeID) (*PushResult, error) {
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
	packed  bool // drain batches through body4 (columns)
}

// errPatchedSnapshot is the reverse push's refusal of a row-patched
// snapshot: its in-rows are the base's (hin.CSR.InRows).
var errPatchedSnapshot = errors.New("ppr: reverse push over a row-patched snapshot")

// drain validates the parameters, csr and every target of ts, then sets
// up a drain over csr's in-rows; the caller supplies its residuals,
// d.n() + hin.InLanes entries. Reverse push walks in-rows, which a row
// patch cannot serve from the shared arrays, so a patched snapshot is
// refused: every reverse push runs over an unpatched one.
func (e *ReversePush) drain(csr *hin.CSR, ts []hin.NodeID) (reverseDrain, error) {
	if err := e.Params.Validate(); err != nil {
		return reverseDrain{}, err
	}
	if u, _, _ := csr.PatchedRow(); u != hin.InvalidNode {
		return reverseDrain{}, fmt.Errorf("%w (node %d)", errPatchedSnapshot, u)
	}
	for _, t := range ts {
		if err := checkNode(csr, t); err != nil {
			return reverseDrain{}, err
		}
	}
	inStart, inSrc, inProb := csr.InRows()
	return reverseDrain{inStart: inStart, inSrc: inSrc, inProb: inProb, packed: packed && !e.scalar,
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
	d.finished(d.pushes, d.r, 1, 0)
	return d.p, d.pushes, nil
}

// finished records a completed column on the engine's metrics: one
// run, its pushes and its terminal residual mass, read from
// r[stride·x+j] for every node x.
func (d *reverseDrain) finished(pushes int, r Vector, stride, j int) {
	if !obs.Enabled() {
		return
	}
	var mass float64
	for x := range d.n() {
		mass += abs(r[stride*x+j])
	}
	runsReverse.Inc()
	pushesReverse.Add(int64(pushes))
	residualMassReverse.Observe(mass)
}

// columns drains PPR(·,ts[k]) into cols[k] for every k. On a packed
// drain it takes the targets four at a time, then the last two or
// three together, through body4 (group); a lone column, and every
// column of a drain that is not packed, goes through kernel.body
// (column). If res is not nil, res[k] receives column k's estimates,
// a copy of its terminal residuals and its push count.
func (d *reverseDrain) columns(ctx context.Context, ts []hin.NodeID, cols []Vector, res []*PushResult) error {
	k := 0
	if d.packed && len(ts) > 1 {
		block := take(&blocks, lanes*(2*d.n()+hin.InLanes)) // group clears it
		defer blocks.Put(block)
		for ; len(ts)-k > 1; k += lanes {
			m := min(lanes, len(ts)-k)
			var rs []*PushResult
			if res != nil {
				rs = res[k : k+m]
			}
			if err := d.group(ctx, ts[k:k+m], cols[k:k+m], block, rs); err != nil {
				return err
			}
		}
	}
	if k == len(ts) {
		return nil
	}
	d.r = borrow(d.n())
	defer buffers.Put(d.r)
	for ; k < len(ts); k++ {
		p, pushes, err := d.column(ctx, ts[k])
		if err != nil {
			return err
		}
		cols[k] = p
		if res != nil {
			res[k] = &PushResult{Estimates: p, Residuals: slices.Clone(d.r[:len(p)]), Pushes: pushes}
		}
	}
	return nil
}

// lanes is the columns body4 drains at once.
const lanes = 4

// quad is one group's per-column state, lane j for column j: ω, the
// sweep's peak |r| and its bar, and the pushes made. packed_amd64.s
// reads the fields at fixed offsets.
type quad struct {
	omega, peak, bar [lanes]float64
	pushes           [lanes]int64
}

// The offsets packed_amd64.s names.
var (
	_ = [1]struct{}{}[unsafe.Offsetof(quad{}.peak)-32]
	_ = [1]struct{}{}[unsafe.Offsetof(quad{}.bar)-64]
	_ = [1]struct{}{}[unsafe.Offsetof(quad{}.pushes)-96]
)

// group drains two to four columns, those of ts, together: as column
// drains each, with the residuals and estimates interleaved in block —
// r[4·x+j] is column j's residual at x, 4·(n + hin.InLanes) entries,
// then p[4·x+j] its estimate, 4·n — and body4 for kernel.body. Each
// column keeps its own ω, bar and termination (a whole sweep with no
// push), so it makes exactly the pushes and floating-point operations of
// its scalar drain and ends bit for bit the same; the group sweeps until
// its last column is done, a finished column's lane pushing nothing. The
// context and the ppr.reverse.loop failpoint are polled once per
// ctxCheckInterval node visits for the whole group, not per column.
// A column is copied out and recorded as it finishes; res is as in
// columns.
func (d *reverseDrain) group(ctx context.Context, ts []hin.NodeID, cols []Vector, block Vector, res []*PushResult) error {
	n := d.n()
	clear(block)
	r, p := block[:lanes*(n+hin.InLanes)], block[lanes*(n+hin.InLanes):]
	var q quad
	omega := relaxation(d.alpha)
	live := 0 // bit j: column j still sweeps
	for j, t := range ts {
		r[lanes*int(t)+j] = 1
		q.omega[j], q.bar[j] = omega, (1-d.alpha)*omega
		live |= 1 << j
	}
	for sweep := 1; live != 0; sweep++ {
		q.peak = [lanes]float64{}
		for lo := 0; lo < n; lo += ctxCheckInterval {
			if err := ctxErr(ctx); err != nil {
				return err
			}
			if err := reverseLoopSite.Hit(ctx); err != nil {
				return err
			}
			hi := min(lo+ctxCheckInterval, n)
			body4(&q, d.inStart[lo:hi+1], d.inSrc, d.inProb, r, p, lo, d.alpha, 1-d.alpha, d.eps)
		}
		for j := range ts {
			switch {
			case live&(1<<j) == 0:
			case q.peak[j] <= 0:
				live &^= 1 << j
				cols[j] = lane(p, n, j)
				d.finished(int(q.pushes[j]), r, lanes, j)
				if res != nil {
					res[j] = &PushResult{Estimates: cols[j], Residuals: lane(r, n, j), Pushes: int(q.pushes[j])}
				}
			default:
				if sweep >= relaxedSweeps {
					q.omega[j] = 1
				}
				q.bar[j] = q.peak[j]
			}
		}
	}
	return nil
}

// lane copies column j's n entries out of the interleaved v.
func lane(v Vector, n, j int) Vector {
	out := make(Vector, n)
	for x := range out {
		out[x] = v[lanes*x+j]
	}
	return out
}

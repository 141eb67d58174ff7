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

	// width is a test seam, set only by WidthReversePush: 1, 4 or 8
	// drains a batch as on a CPU whose widest pass is that many columns
	// (columns); 0, the default, is this CPU's own.
	width int
}

// NewReversePush returns a reverse-push engine with the given parameters.
func NewReversePush(p Params) *ReversePush { return &ReversePush{Params: p} }

// WidthReversePush is NewReversePush draining as a CPU whose widest
// pass is w columns would: 1 through kernel.body alone, 4 through body4,
// 8 through body8 as well. It is a test seam: the tests of ppr and of
// its callers run each of HostWidths through it, and nothing shipped
// calls it.
func WidthReversePush(p Params, w int) *ReversePush {
	e := NewReversePush(p)
	e.width = w
	return e
}

// HostWidths lists the pass widths this CPU runs, narrowest first: the
// widths WidthReversePush can test here.
func HostWidths() []int {
	var ws []int
	for _, w := range []int{1, 4, 8} {
		if w <= wide {
			ws = append(ws, w)
		}
	}
	return ws
}

// PassWidth is the most columns one ToTargets pass drains on this CPU:
// 8 with AVX-512, 4 with AVX2 alone, else 1. A batch of up to PassWidth
// columns costs one graph pass.
func (e *ReversePush) PassWidth() int {
	if e.width != 0 {
		return min(e.width, wide)
	}
	return wide
}

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
// Where the CPU has AVX-512 the batch drains up to eight columns at a
// time through a packed body, with AVX2 alone four (columns).
func (e *ReversePush) ToTargets(ctx context.Context, g *hin.CSR, ts []hin.NodeID) ([]Vector, error) {
	if len(ts) == 0 {
		return nil, nil
	}
	cols := make([]Vector, len(ts))
	if err := e.ToTargetsInto(ctx, g, ts, cols); err != nil {
		return nil, err
	}
	return cols, nil
}

// ToTargetsInto is ToTargets writing column k to cols[k], in place when
// cols[k] holds exactly one entry per node of g — a caller recycling
// the columns of an earlier batch, which no two slots may share — and
// into a new vector otherwise. After an error no slot of cols is to be
// read: each holds a finished column, a half-written one or what it
// held before.
func (e *ReversePush) ToTargetsInto(ctx context.Context, g *hin.CSR, ts []hin.NodeID, cols []Vector) error {
	if len(ts) == 0 {
		return nil
	}
	d, err := e.drain(g, ts)
	if err != nil {
		return err
	}
	return d.columns(ctx, ts, cols, nil)
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
	p, pushes, err := d.column(ctx, t, nil)
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
	width   int // the widest pass: ReversePush.PassWidth
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
	return reverseDrain{inStart: inStart, inSrc: inSrc, inProb: inProb, width: e.PassWidth(),
		kernel: kernel{alpha: e.Params.Alpha, eps: e.Params.Epsilon}}, nil
}

// n is the node count of the drained graph.
func (d *reverseDrain) n() int { return len(d.inStart) - 1 }

// column drains PPR(·,t) from r = e_t into p — a new vector unless p
// holds one entry per node — and returns its estimates and push count;
// r is left holding the column's terminal residuals. Nodes are
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
func (d *reverseDrain) column(ctx context.Context, t hin.NodeID, p Vector) (Vector, int, error) {
	n := d.n()
	clear(d.r)
	d.r[t] = 1
	if len(p) != n {
		p = make(Vector, n)
	}
	clear(p)
	d.p, d.pushes = p, 0
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

// columns drains PPR(·,ts[k]) into cols[k] (as ToTargetsInto) for
// every k, in passes chosen from BenchmarkReversePushLite's cost table:
// while five or more columns are left and the drain is 8 wide, the next
// eight (or all that are left) go through body8; while two to four are
// left, through body4; a lone column, and every column of a drain 1
// wide, through kernel.body (column). Both packed widths share one
// block from blocks, sized for the drain's widest pass. If res is not
// nil, res[k] receives column k's estimates, a copy of its terminal
// residuals and its push count.
func (d *reverseDrain) columns(ctx context.Context, ts []hin.NodeID, cols []Vector, res []*PushResult) error {
	k := 0
	if d.width > 1 && len(ts) > 1 {
		block := take(&blocks, d.width*(2*d.n()+hin.InLanes)) // group clears what it uses
		defer blocks.Put(block)
		for left := len(ts); left > 1; left = len(ts) - k {
			w := 4
			if d.width == 8 && left >= 5 {
				w = 8
			}
			m := min(w, left)
			var rs []*PushResult
			if res != nil {
				rs = res[k : k+m]
			}
			if err := d.group(ctx, ts[k:k+m], cols[k:k+m], block, w, rs); err != nil {
				return err
			}
			k += m
		}
	}
	if k == len(ts) {
		return nil
	}
	d.r = borrow(d.n())
	defer buffers.Put(d.r)
	for ; k < len(ts); k++ {
		p, pushes, err := d.column(ctx, ts[k], cols[k])
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

// maxLanes is the columns body8, the widest packed body, drains at once.
const maxLanes = 8

// laneState is one group's per-column state, lane j for column j: ω,
// the sweep's peak |r| and its bar, and the pushes made. body4 reads
// the first four entries of each array, body8 all eight;
// packed_amd64.s reads the fields at fixed offsets.
type laneState struct {
	omega, peak, bar [maxLanes]float64
	pushes           [maxLanes]int64
}

// The offsets packed_amd64.s names.
var (
	_ = [1]struct{}{}[unsafe.Offsetof(laneState{}.peak)-64]
	_ = [1]struct{}{}[unsafe.Offsetof(laneState{}.bar)-128]
	_ = [1]struct{}{}[unsafe.Offsetof(laneState{}.pushes)-192]
)

// group drains the columns of ts, at most w of them, together, w = 4
// or 8: as column drains each, with the residuals and estimates
// interleaved in block — r[w·x+j] is column j's residual at x, w·(n +
// hin.InLanes) entries, then p[w·x+j] its estimate, w·n — and body4 or
// body8 for kernel.body. Each column keeps its own ω, bar and
// termination (a whole sweep with no push), so it makes exactly the
// pushes and floating-point operations of its scalar drain and ends bit
// for bit the same; the group sweeps until its last column is done, a
// finished or empty lane pushing nothing. The context and the
// ppr.reverse.loop failpoint are polled once per ctxCheckInterval node
// visits for the whole group, not per column. A column is copied out
// and recorded as it finishes; res is as in columns.
func (d *reverseDrain) group(ctx context.Context, ts []hin.NodeID, cols []Vector, block Vector, w int, res []*PushResult) error {
	n := d.n()
	block = block[:w*(2*n+hin.InLanes)]
	clear(block)
	r, p := block[:w*(n+hin.InLanes)], block[w*(n+hin.InLanes):]
	var q laneState
	omega := relaxation(d.alpha)
	live := 0 // bit j: column j still sweeps
	for j, t := range ts {
		r[w*int(t)+j] = 1
		q.omega[j], q.bar[j] = omega, (1-d.alpha)*omega
		live |= 1 << j
	}
	for sweep := 1; live != 0; sweep++ {
		q.peak = [maxLanes]float64{}
		for lo := 0; lo < n; lo += ctxCheckInterval {
			if err := ctxErr(ctx); err != nil {
				return err
			}
			if err := reverseLoopSite.Hit(ctx); err != nil {
				return err
			}
			hi := min(lo+ctxCheckInterval, n)
			if w == 8 { // a direct call: through a func value q would escape
				body8(&q, d.inStart[lo:hi+1], d.inSrc, d.inProb, r, p, lo, d.alpha, 1-d.alpha, d.eps)
			} else {
				body4(&q, d.inStart[lo:hi+1], d.inSrc, d.inProb, r, p, lo, d.alpha, 1-d.alpha, d.eps)
			}
		}
		for j := range ts {
			switch {
			case live&(1<<j) == 0:
			case q.peak[j] <= 0:
				live &^= 1 << j
				cols[j] = lane(cols[j], p, n, w, j)
				d.finished(int(q.pushes[j]), r, w, j)
				if res != nil {
					res[j] = &PushResult{Estimates: cols[j], Residuals: lane(nil, r, n, w, j), Pushes: int(q.pushes[j])}
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

// lane copies column j's n entries out of v, w columns interleaved,
// into out — a new vector unless out holds n entries — and returns it.
func lane(out, v Vector, n, w, j int) Vector {
	if len(out) != n {
		out = make(Vector, n)
	}
	for x := range out {
		out[x] = v[w*x+j]
	}
	return out
}

package ppr

import (
	"context"
	"fmt"
	"math"

	"github.com/why-not-xai/emigre/internal/fmath"
	"github.com/why-not-xai/emigre/internal/hin"
)

// This file is the warm-start ("delta-PPR") entry point of the forward
// push engine: given a completed base PushResult over one snapshot and
// a new one that differs only in the outgoing rows of a known node set,
// UpdateForEdit repairs the push invariant at the edited rows and the
// forward sweep pushes the perturbed mass only, instead of a full
// recomputation. The base state is never mutated, so any number of
// concurrent callers can warm-start from one shared base result as long
// as each brings its own UpdateScratch. Every EMiGRe counterfactual has
// this shape — it differs from the base graph in the query user's row
// alone — but the CHECK decides cold since a cold sweep became cheaper
// than the warm screen's upkeep (DESIGN.md §3.15).
//
// Update rule (Zhang, Lofgren & Goel, KDD'16; DESIGN.md §3.15). With
// Z = α(I − (1−α)W)⁻¹ and ΔW = W′ − W supported on the edited rows, the
// row vector p ≈ PPR(s,·) satisfies p = Zᵀ(e_s − r); keeping p fixed,
// r′ = r + (1−α)/α · ΔWᵀ p re-establishes the invariant on W′. Only
// the edited rows' out-neighborhood unions are touched, each scaled by
// the row's estimate p(u).
//
// Residuals may turn negative after a repair; the push rule is linear
// and applies unchanged (the forward sweep drains |r| > ε).

// UpdateScratch holds the reusable working set of UpdateForEdit calls:
// estimate/residual copies (the residuals with the forward sweep's
// hin.InLanes scratch slots) and the sparse transition-delta accumulator.
// The zero value is ready to use; the first call sizes it to the graph.
// A scratch must not be shared by concurrent calls — give each worker
// its own.
//
// Results returned from UpdateForEdit alias the scratch buffers: they
// are valid until the scratch's next use and must be copied for longer
// retention.
type UpdateScratch struct {
	p, r  Vector
	delta deltaAcc
}

// ensure sizes the scratch for an n-node graph.
func (sc *UpdateScratch) ensure(n int) {
	if len(sc.p) != n {
		sc.p = make(Vector, n)
		sc.r = make(Vector, n+hin.InLanes)
	}
	sc.delta.ensure(n)
}

// deltaAcc is a sparse signed accumulator over node IDs: a dense value
// slice plus the touched-ID list, so repeated use never re-allocates
// and reset is O(touched).
type deltaAcc struct {
	val     []float64
	mark    []bool
	touched []hin.NodeID
}

func (d *deltaAcc) ensure(n int) {
	if len(d.val) != n {
		d.val = make([]float64, n)
		d.mark = make([]bool, n)
		d.touched = d.touched[:0]
	}
}

func (d *deltaAcc) add(y hin.NodeID, x float64) {
	if !d.mark[y] {
		d.mark[y] = true
		d.touched = append(d.touched, y)
	}
	d.val[y] += x
}

// reset clears only the touched entries, keeping the buffers.
func (d *deltaAcc) reset() {
	for _, y := range d.touched {
		d.val[y] = 0
		d.mark[y] = false
	}
	d.touched = d.touched[:0]
}

// transitionDeltaInto accumulates W′(u,·) − W(u,·) into d over the
// union of u's old and new out-neighborhoods, and sorts the touched
// IDs ascending so every consumer iterates deterministically (the
// same order a full residual scan would visit).
func transitionDeltaInto(d *deltaAcc, oldView, newView *hin.CSR, u hin.NodeID) {
	if total := oldView.OutWeightSum(u); total > 0 {
		for _, h := range oldView.OutSlice(u) {
			d.add(h.Node, -h.Weight/total)
		}
	}
	if total := newView.OutWeightSum(u); total > 0 {
		for _, h := range newView.OutSlice(u) {
			d.add(h.Node, h.Weight/total)
		}
	}
	// Insertion sort: touched lists are O(row degree) and sort.Slice
	// would allocate its closure on every repair.
	for i := 1; i < len(d.touched); i++ {
		for j := i; j > 0 && d.touched[j] < d.touched[j-1]; j-- {
			d.touched[j], d.touched[j-1] = d.touched[j-1], d.touched[j]
		}
	}
}

// checkUpdateInputs validates the preconditions of the warm-start
// entry point.
func checkUpdateInputs(params Params, oldView, newView *hin.CSR, base *PushResult) error {
	if err := params.Validate(); err != nil {
		return err
	}
	n := newView.NumNodes()
	if oldView.NumNodes() != n {
		return fmt.Errorf("ppr: warm-start update cannot change the node count (%d -> %d)",
			oldView.NumNodes(), n)
	}
	if base == nil || len(base.Estimates) != n || len(base.Residuals) != n {
		return fmt.Errorf("ppr: warm-start update requires a completed base push over the same %d nodes", n)
	}
	return nil
}

// UpdateForEdit warm-starts a forward push: base must be a completed
// run of this engine from s over oldView, and newView must differ from
// oldView only in the outgoing rows listed in rows. The residuals are
// repaired at the edited rows' out-neighborhoods and the forward sweep
// drains the perturbed mass, restoring the ε contract on
// newView — the returned estimates carry the same per-entry error
// bound as a fresh RunContext over newView.
//
// base is never mutated; the result aliases sc's buffers (see
// UpdateScratch). sc may be nil for one-shot use.
func (e *ForwardPush) UpdateForEdit(ctx context.Context, oldView, newView *hin.CSR, base *PushResult, rows []hin.NodeID, sc *UpdateScratch) (*PushResult, error) {
	if err := checkUpdateInputs(e.Params, oldView, newView, base); err != nil {
		return nil, err
	}
	if sc == nil {
		sc = &UpdateScratch{}
	}
	sc.ensure(newView.NumNodes())
	copy(sc.p, base.Estimates)
	copy(sc.r, base.Residuals)
	alpha := e.Params.Alpha
	for _, u := range rows {
		if err := checkNode(newView, u); err != nil {
			return nil, err
		}
		sc.delta.reset()
		transitionDeltaInto(&sc.delta, oldView, newView, u)
		scale := (1 - alpha) / alpha * sc.p[u]
		if fmath.Eq(scale, 0) {
			continue
		}
		for _, y := range sc.delta.touched {
			sc.r[y] += scale * sc.delta.val[y]
		}
	}
	pushes, err := e.sweep(ctx, updateLoopSite, newView, sc.p, sc.r)
	if err != nil {
		return nil, err
	}
	res := &PushResult{Estimates: sc.p, Residuals: sc.r[:len(sc.p)], Pushes: pushes}
	recordPush(runsForwardUpdate, pushesForwardUpdate, residualMassForwardUpdate, pushes, res.Residuals)
	return res, nil
}

// abs delegates to the math.Abs intrinsic (a single sign-bit clear):
// a branching |x| mispredicts heavily inside the forward sweep, where a
// warm start's residual signs are effectively random.
func abs(x float64) float64 {
	return math.Abs(x)
}

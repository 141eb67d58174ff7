package rec

import (
	"context"
	"fmt"
	"sort"

	"github.com/why-not-xai/emigre/internal/fmath"
	"github.com/why-not-xai/emigre/internal/hin"
	"github.com/why-not-xai/emigre/internal/ppr"
	"github.com/why-not-xai/emigre/internal/pprcache"
)

// EdgeContribution decomposes a personalized score along one of the
// user's outgoing edges.
type EdgeContribution struct {
	// Edge is the user's action, with its weight on the scoring
	// snapshot (β-mixed when β < 1).
	Edge hin.Edge
	// Transition is the edge's probability W(u, n) on the scoring
	// snapshot.
	Transition float64
	// Target is PPR(n, target): how strongly the neighbor endorses the
	// target item.
	Target float64
	// Share is the edge's additive share of PPR(u, target):
	// (1−α)·Transition·Target.
	Share float64
}

// Arc names one of a node's out-edges by its target and type.
type Arc struct {
	To   hin.NodeID
	Type hin.EdgeTypeID
}

// Transitions returns u's row W(u,·) of the scoring snapshot, each
// out-edge's transition probability keyed by its target and type: the
// factor W(u,n) of u's contribution W(u,n)·PPR(n,t) by which EMiGRe's
// search space and PRINCE's swaps weigh an action.
func (r *Recommender) Transitions(u hin.NodeID) map[Arc]float64 {
	flat := r.Flat()
	probs := flat.OutProbs(u)
	t := make(map[Arc]float64, len(probs))
	for i, h := range flat.OutSlice(u) {
		t[Arc{h.Node, h.Type}] += probs[i]
	}
	return t
}

// Contributions decomposes PPR(u, target) along u's outgoing edges
// using the linearity of Eq. 1 (DESIGN.md §3.1):
//
//	PPR(u,t) = α·[u=t] + (1−α)·Σ_n W(u,n)·PPR(n,t)
//
// The returned shares therefore sum to PPR(u, target) when u ≠ target
// (up to push tolerance). This is the "why is this item scored the way
// it is" introspection the EMiGRe contribution functions build on, and
// a useful white-box explanation in its own right. A WithUserPatch copy
// refuses it: the reverse push behind it needs an unpatched snapshot.
func (r *Recommender) Contributions(u, target hin.NodeID) ([]EdgeContribution, error) {
	n := r.base.NumNodes()
	if u < 0 || int(u) >= n || target < 0 || int(target) >= n {
		return nil, fmt.Errorf("rec: node out of range (user %d, target %d, %d nodes)", u, target, n)
	}
	col, err := r.reverseColumn(context.Background(), target)
	if err != nil {
		return nil, err
	}
	alpha := r.cfg.PPR.Alpha
	flat := r.Flat()
	probs := flat.OutProbs(u)
	var out []EdgeContribution
	for i, h := range flat.OutSlice(u) {
		w := probs[i]
		out = append(out, EdgeContribution{
			Edge:       hin.Edge{From: u, To: h.Node, Type: h.Type, Weight: h.Weight},
			Transition: w,
			Target:     col[h.Node],
			Share:      (1 - alpha) * w * col[h.Node],
		})
	}
	sort.Slice(out, func(i, j int) bool {
		return fmath.Before(out[i].Share, out[j].Share, int(out[i].Edge.To), int(out[j].Edge.To))
	})
	return out, nil
}

// reverseColumn returns PPR(·, target) over the recommender's scoring
// view, served through the attached vector cache when the view is
// versioned — the recommender-side twin of the explainer's
// session.reverseColumns. TestContributionsColumnCached pins that a
// repeat column is a cache hit.
func (r *Recommender) reverseColumn(ctx context.Context, target hin.NodeID) (ppr.Vector, error) {
	rev := ppr.NewReversePush(r.cfg.PPR)
	if k, ok := r.key(pprcache.Reverse, rev, target); ok {
		vec, _, err := r.cache.GetOrCompute(ctx, k, func(cctx context.Context) (ppr.Vector, error) {
			return rev.ToTargetContext(cctx, r.Flat(), target)
		})
		return vec, err
	}
	return rev.ToTargetContext(ctx, r.Flat(), target)
}

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
	// Edge is the user's action (with its raw weight).
	Edge hin.Edge
	// Transition is the edge's probability W(u, n) under the β-mixed
	// view.
	Transition float64
	// Target is PPR(n, target): how strongly the neighbor endorses the
	// target item.
	Target float64
	// Share is the edge's additive share of PPR(u, target):
	// (1−α)·Transition·Target.
	Share float64
}

// Contributions decomposes PPR(u, target) along u's outgoing edges
// using the linearity of Eq. 1 (DESIGN.md §3.1):
//
//	PPR(u,t) = α·[u=t] + (1−α)·Σ_n W(u,n)·PPR(n,t)
//
// The returned shares therefore sum to PPR(u, target) when u ≠ target
// (up to push tolerance). This is the "why is this item scored the way
// it is" introspection the EMiGRe contribution functions build on, and
// a useful white-box explanation in its own right.
func (r *Recommender) Contributions(u, target hin.NodeID) ([]EdgeContribution, error) {
	n := r.base.NumNodes()
	if u < 0 || int(u) >= n || target < 0 || int(target) >= n {
		return nil, fmt.Errorf("rec: node out of range (user %d, target %d, %d nodes)", u, target, n)
	}
	col, err := r.reverseColumn(context.Background(), target)
	if err != nil {
		return nil, err
	}
	view := r.View()
	total := view.OutWeightSum(u)
	if total <= 0 {
		return nil, nil
	}
	alpha := r.cfg.PPR.Alpha
	var out []EdgeContribution
	view.OutEdges(u, func(h hin.HalfEdge) bool {
		w := h.Weight / total
		out = append(out, EdgeContribution{
			Edge:       hin.Edge{From: u, To: h.Node, Type: h.Type, Weight: h.Weight},
			Transition: w,
			Target:     col[h.Node],
			Share:      (1 - alpha) * w * col[h.Node],
		})
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		return fmath.Before(out[i].Share, out[j].Share, int(out[i].Edge.To), int(out[j].Edge.To))
	})
	return out, nil
}

// reverseColumn returns PPR(·, target) over the recommender's scoring
// view, served through the attached vector cache when the view is
// versioned — the recommender-side twin of the explainer's
// session.reverseColumns, and (with ScoresContext) one of the two
// routing helpers the rawengine analyzer permits to invoke an engine
// directly.
func (r *Recommender) reverseColumn(ctx context.Context, target hin.NodeID) (ppr.Vector, error) {
	rev := ppr.NewReversePush(r.cfg.PPR)
	if r.cache != nil {
		if k, ok := pprcache.ReverseKey(r.view, rev, target); ok {
			vec, _, err := r.cache.GetOrCompute(ctx, k, func(cctx context.Context) (ppr.Vector, error) {
				return rev.ToTargetContext(cctx, r.Flat(), target)
			})
			return vec, err
		}
	}
	return rev.ToTargetContext(ctx, r.Flat(), target)
}

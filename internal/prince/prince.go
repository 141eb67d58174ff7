// Package prince implements a PRINCE-style counterfactual explainer
// (Ghazimatin, Balalau, Saha Roy & Weikum, WSDM 2020) over the same HIN
// and PPR substrate as EMiGRe.
//
// PRINCE answers the *Why* question for an existing recommendation: it
// finds a minimal set of the user's own actions whose removal changes
// the top-1 recommendation to *any* other item. The paper this
// repository reproduces uses PRINCE as a contrast (its Figure 2): a Why
// explanation for the current top item is not a Why-Not explanation for
// a chosen missing item, because PRINCE's replacement item is whatever
// happens to win, not the item the user asked about.
//
// Implementation note: PRINCE's published algorithm derives exact swap
// sets from u-absorbing PPR values. This implementation uses the same
// first-order action scores as EMiGRe's Remove mode (the contribution
// of each action to rec versus a candidate replacement item) with a
// greedy swap per replacement candidate, and verifies each candidate
// counterfactual by re-running the recommender — so every returned CFE
// is sound, and minimality is approximate in the same sense as the
// original's candidate enumeration over top-k replacement items.
package prince

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/why-not-xai/emigre/internal/fmath"
	"github.com/why-not-xai/emigre/internal/hin"
	"github.com/why-not-xai/emigre/internal/ppr"
	"github.com/why-not-xai/emigre/internal/rec"
)

// ErrNoCFE is returned when no counterfactual explanation exists within
// the configured budgets.
var ErrNoCFE = errors.New("prince: no counterfactual explanation found")

// Options configures the explainer.
type Options struct {
	// AllowedEdgeTypes restricts the action edges that may be removed
	// (PRINCE removes user actions only). Zero allows all types.
	AllowedEdgeTypes hin.EdgeTypeSet
	// MaxReplacements is the number of top-ranked candidate replacement
	// items examined. Default 10.
	MaxReplacements int
	// MaxTests caps verification runs. Default 100.
	MaxTests int
}

const (
	defaultMaxReplacements = 10
	defaultMaxTests        = 100
)

// CFE is a verified counterfactual explanation: removing Edges changes
// the user's top-1 recommendation from OldTop to NewTop.
type CFE struct {
	User   hin.NodeID
	OldTop hin.NodeID
	NewTop hin.NodeID
	// Edges is the minimal action set found (the paper's A*).
	Edges []hin.Edge
	// Tests counts the verification runs performed.
	Tests    int
	Duration time.Duration
}

// Size returns the number of removed actions.
func (c *CFE) Size() int { return len(c.Edges) }

// Explainer computes counterfactual explanations for existing
// recommendations.
type Explainer struct {
	g    *hin.Graph
	r    *rec.Recommender
	opts Options
	rev  *ppr.ReversePush
}

// New builds a PRINCE explainer over g and its recommender.
func New(g *hin.Graph, r *rec.Recommender, opts Options) *Explainer {
	if opts.MaxReplacements == 0 {
		opts.MaxReplacements = defaultMaxReplacements
	}
	if opts.MaxTests == 0 {
		opts.MaxTests = defaultMaxTests
	}
	return &Explainer{g: g, r: r, opts: opts, rev: ppr.NewReversePush(r.Config().PPR)}
}

// Explain returns a minimal-by-search counterfactual for u's current
// top-1 recommendation.
func (p *Explainer) Explain(u hin.NodeID) (*CFE, error) {
	start := time.Now()
	oldTop, err := p.r.Recommend(u)
	if err != nil {
		return nil, err
	}
	view := p.r.Flat()
	actions := p.g.OutEdgesOfType(u, p.opts.AllowedEdgeTypes)
	if len(actions) == 0 {
		return nil, fmt.Errorf("%w: user %d has no removable actions", ErrNoCFE, u)
	}
	trans := transitionTable(view, u)

	// Candidate replacement items: the runners-up of the current list.
	top, err := p.r.TopN(u, p.opts.MaxReplacements+1)
	if err != nil {
		return nil, err
	}

	// toRec and every runner-up's column come out of one blocked drain.
	targets := []hin.NodeID{oldTop}
	for _, sc := range top {
		if sc.Node != oldTop {
			targets = append(targets, sc.Node)
		}
	}
	cols, err := p.rev.ToTargets(context.Background(), view, targets)
	if err != nil {
		return nil, err
	}
	toRec := cols[0]

	type swapSet struct {
		edges  []hin.Edge
		target hin.NodeID
		margin float64
	}
	var candidates []swapSet
	for k, y := range targets[1:] {
		toY := cols[k+1]
		// Score each action by how much it favors oldTop over y; the
		// greedy swap removes the strongest oldTop-supporters until the
		// first-order gap flips.
		type scored struct {
			edge  hin.Edge
			score float64
		}
		scoredActions := make([]scored, len(actions))
		var gap float64
		for i, e := range actions {
			s := trans[edgeKey{e.To, e.Type}] * (toRec[e.To] - toY[e.To])
			scoredActions[i] = scored{edge: e, score: s}
			gap += s
		}
		sort.Slice(scoredActions, func(i, j int) bool {
			return fmath.Before(scoredActions[i].score, scoredActions[j].score,
				int(scoredActions[i].edge.To), int(scoredActions[j].edge.To))
		})
		var removed []hin.Edge
		feasible := false
		for _, sa := range scoredActions {
			if gap <= 0 {
				feasible = true
				break
			}
			if sa.score <= 0 {
				break // only oldTop-supporters help the swap
			}
			removed = append(removed, sa.edge)
			gap -= sa.score
		}
		if gap <= 0 {
			feasible = true
		}
		if !feasible || len(removed) == 0 || len(removed) == len(actions) {
			// Removing every action leaves the user isolated — PRINCE
			// excludes the degenerate full removal.
			continue
		}
		candidates = append(candidates, swapSet{edges: removed, target: y, margin: -gap})
	}
	if len(candidates) == 0 {
		return nil, fmt.Errorf("%w: no feasible swap among top-%d replacements", ErrNoCFE, p.opts.MaxReplacements)
	}
	sort.Slice(candidates, func(i, j int) bool {
		if len(candidates[i].edges) != len(candidates[j].edges) {
			return len(candidates[i].edges) < len(candidates[j].edges)
		}
		return candidates[i].margin > candidates[j].margin
	})

	tests := 0
	for _, cand := range candidates {
		if tests >= p.opts.MaxTests {
			break
		}
		tests++
		o, err := hin.NewOverlay(p.g, cand.edges, nil)
		if err != nil {
			return nil, err
		}
		newTop, err := p.r.WithUserPatch(o, u).Recommend(u)
		if err != nil {
			if errors.Is(err, rec.ErrNoCandidates) {
				continue
			}
			return nil, err
		}
		if newTop != oldTop {
			return &CFE{
				User:     u,
				OldTop:   oldTop,
				NewTop:   newTop,
				Edges:    cand.edges,
				Tests:    tests,
				Duration: time.Since(start),
			}, nil
		}
	}
	return nil, fmt.Errorf("%w: %d candidate swaps failed verification", ErrNoCFE, tests)
}

type edgeKey struct {
	to  hin.NodeID
	typ hin.EdgeTypeID
}

func transitionTable(view hin.View, u hin.NodeID) map[edgeKey]float64 {
	total := view.OutWeightSum(u)
	t := make(map[edgeKey]float64)
	if total <= 0 {
		return t
	}
	view.OutEdges(u, func(h hin.HalfEdge) bool {
		t[edgeKey{h.Node, h.Type}] += h.Weight / total
		return true
	})
	return t
}

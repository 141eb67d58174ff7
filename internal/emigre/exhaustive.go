package emigre

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/why-not-xai/emigre/internal/fmath"
	"github.com/why-not-xai/emigre/internal/hin"
	"github.com/why-not-xai/emigre/internal/ppr"
	"github.com/why-not-xai/emigre/internal/rec"
)

// exhaustive implements the Exhaustive Comparison of Algorithm 5: where
// the top-1 strategies only compare WNI against the displaced
// recommendation, this strategy requires WNI to beat *every* item t of
// the current top-k list. It builds
//
//   - the contribution matrix C with one row per candidate and one
//     column per target t (Table 1 of the running example),
//   - the threshold vector Threshold(t) = Σ_{n∈Nout} C_{n,t} (Eq. 7,
//     Table 2) — the current gap of target t over WNI,
//
// and keeps every candidate combination whose summed row strictly
// dominates the threshold vector (Table 3). Surviving combinations are
// examined in ascending size order, the widest margin first; with
// withCheck, each is verified by CHECK before being returned (the
// paper's remove_ex / add_ex); without it, the first surviving
// combination is returned unverified (the remove_ex_direct baseline,
// whose measured ~33% success-rate drop motivates the CHECK step).
//
// Unlike Algorithms 3-4, no sign-based pruning is applied to H: a
// candidate that slightly hurts WNI against rec may still be needed to
// pull down a third item (§5.2.2). H is capped at MaxSearchSpace by
// absolute contribution to bound the combination sweep.
func (s *session) exhaustive(withCheck bool) (*Explanation, error) {
	targets := s.exhaustiveTargets()
	cols, err := s.targetColumns(targets)
	if err != nil {
		return nil, err
	}

	h := s.exhaustiveCandidates()
	if len(h) == 0 {
		return nil, fmt.Errorf("%w (exhaustive, %s mode: empty search space)", ErrNoExplanation, s.mode)
	}

	// reduction[i][k]: how much committing candidate i closes the gap of
	// target k over WNI. threshold[k]: the current gap of target k.
	trans := s.ex.r.Transitions(s.q.User)
	reduction := make([][]float64, len(h))
	for i, cand := range h {
		row := make([]float64, len(targets))
		n := cand.edge.To
		for k := range targets {
			switch cand.op {
			case Remove:
				row[k] = trans[rec.Arc{To: n, Type: cand.edge.Type}] * (cols[k][n] - s.toWNI[n])
			case Reweight:
				row[k] = cand.transDelta * (s.toWNI[n] - cols[k][n])
			default: // Add
				row[k] = s.toWNI[n] - cols[k][n]
			}
		}
		reduction[i] = row
	}
	threshold := make([]float64, len(targets))
	for _, e := range s.ex.g.OutEdgesOfType(s.q.User, s.ex.opts.AllowedEdgeTypes) {
		w := trans[rec.Arc{To: e.To, Type: e.Type}]
		for k := range targets {
			threshold[k] += w * (cols[k][e.To] - s.toWNI[e.To])
		}
	}

	gen := s.exhaustiveStream(h, targets, reduction, threshold)
	detail := func() string {
		return fmt.Sprintf("exhaustive, %s mode: |H|=%d, |T|=%d, %d combos, %d checks",
			s.mode, len(h), len(targets), s.stats.CombosExamined, s.stats.Tests)
	}
	if withCheck {
		return s.search(gen, detail)
	}
	// Direct baseline: trust the threshold filter — the first surviving
	// combination is returned unverified, so the stream is consumed
	// inline rather than through runChecks.
	var first *Explanation
	err = gen(func(cands []candidate) bool {
		first = s.found(cands, false, hin.InvalidNode)
		return false
	})
	if err == nil && first == nil {
		err = fmt.Errorf("%w (%s)", ErrNoExplanation, detail())
	}
	return first, err
}

// exhaustiveStream is Algorithm 5's rule over the ranked stream: a
// combination is kept when its summed reduction row dominates the
// threshold vector (Table 3), and scored by its worst-coordinate slack.
// Every combination counts as examined. With the default TargetRank of 1
// a combination must dominate every target; placing WNI at rank k only
// requires beating all but k−1 of them, so up to k−1 negative-slack
// columns are tolerated.
func (s *session) exhaustiveStream(h []candidate, targets []hin.NodeID, reduction [][]float64, threshold []float64) checkStream {
	allowedMisses := s.ex.opts.TargetRank - 1
	return s.ranked(h, func(idx []int) (float64, bool) {
		s.stats.CombosExamined++
		misses := 0
		worst := math.Inf(1)
		for k := range targets {
			// Connecting the user to target t evicts t from the
			// candidate set of Eq. 2 — WNI no longer needs to beat
			// it, so skip its column (paper erratum; Alg. 5 does
			// not handle self-targets).
			if comboContainsAddedEndpoint(h, idx, targets[k]) {
				continue
			}
			var sum float64
			for _, i := range idx {
				sum += reduction[i][k]
			}
			slack := sum - threshold[k]
			// The paper requires strictly positive slack; we accept
			// slack == 0 too (an estimated tie) because the CHECK
			// step resolves it exactly — this covers the degenerate
			// combination that removes every allowed edge, whose
			// slack is identically zero.
			if slack < 0 {
				misses++
				if misses > allowedMisses {
					return 0, false // fails the domination filter
				}
				continue
			}
			if slack < worst {
				worst = slack
			}
		}
		return worst, true
	}, nil)
}

// comboContainsAddedEndpoint reports whether any Add-op candidate in
// the index combination points at node t.
func comboContainsAddedEndpoint(h []candidate, idx []int, t hin.NodeID) bool {
	for _, i := range idx {
		if h[i].op == Add && h[i].edge.To == t {
			return true
		}
	}
	return false
}

// exhaustiveTargets returns T: the current top-K candidate items
// excluding WNI (the paper's recommendation list with the Why-Not item
// removed, as in the running example), read off the session's baseline
// ranking (topList).
func (s *session) exhaustiveTargets() []hin.NodeID {
	targets := make([]hin.NodeID, 0, s.ex.opts.TopKTargets)
	for _, sc := range s.topList(s.ex.opts.TopKTargets + 1) {
		if sc.Node == s.q.WNI {
			continue
		}
		targets = append(targets, sc.Node)
		if len(targets) == s.ex.opts.TopKTargets {
			break
		}
	}
	return targets
}

// targetColumns returns PPR(·, t) for every target: the session's own
// where it holds one (rec's, and every target of an Exhaustive
// session's opening batch), the rest fetched together through
// session.reverseColumns — one graph pass drains whatever the vector
// cache does not hold.
func (s *session) targetColumns(targets []hin.NodeID) ([]ppr.Vector, error) {
	cols := make([]ppr.Vector, len(targets))
	var need []hin.NodeID
	for k, t := range targets {
		if cols[k] = s.sessionColumn(t); cols[k] == nil {
			need = append(need, t)
		}
	}
	if len(need) == 0 {
		return cols, nil
	}
	fetched, _, err := s.reverseColumns(need, nil, nil)
	if err != nil {
		return nil, s.wrapCtx(err)
	}
	for k := range cols {
		if cols[k] == nil {
			cols[k], fetched = fetched[0], fetched[1:]
		}
	}
	return cols, nil
}

// exhaustiveCandidates returns H without sign pruning, capped at
// MaxSearchSpace by absolute contribution, in search-space order. The
// uncapped H is the session's own list; a cap builds a list of its own
// and leaves the search space as it is.
func (s *session) exhaustiveCandidates() []candidate {
	limit := s.ex.opts.MaxSearchSpace
	if limit <= 0 || len(s.cands) <= limit {
		s.sortAll()
		return s.cands
	}
	var h []candidate
	if s.mode == Add {
		// Add candidates have distinct endpoints, so the cap's order is
		// total and selecting its first entries picks what a sort would.
		h = bestOf(s.cands, limit, absCmp)
	} else {
		// Another mode's row can hold two edge types to one item, where
		// the order is not total: keep sort.Slice's pick off the sorted list.
		h = slices.Clone(s.cands)
		sort.Slice(h, func(i, j int) bool { return absCmp(h[i], h[j]) < 0 })
		h = h[:limit]
	}
	sortCandidates(h)
	return h
}

// absCmp orders by descending |contribution|, ties by endpoint.
func absCmp(a, b candidate) int {
	if x, y := math.Abs(a.contribution), math.Abs(b.contribution); !fmath.Eq(x, y) {
		if x > y {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.edge.To, b.edge.To)
}

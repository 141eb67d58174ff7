package emigre

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/why-not-xai/emigre/internal/fmath"
	"github.com/why-not-xai/emigre/internal/hin"
	"github.com/why-not-xai/emigre/internal/ppr"
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
// examined in ascending size order; with withCheck, each is verified by
// CHECK before being returned (the paper's remove_ex / add_ex); without
// it, the first surviving combination is returned unverified (the
// remove_ex_direct baseline, whose measured ~33% success-rate drop
// motivates the CHECK step).
//
// Unlike Algorithms 3-4, no sign-based pruning is applied to H: a
// candidate that slightly hurts WNI against rec may still be needed to
// pull down a third item (§5.2.2). H is capped at MaxSearchSpace by
// absolute contribution to bound the combination sweep.
func (s *session) exhaustive(withCheck bool) (*Explanation, error) {
	opts := s.ex.opts

	targets, err := s.exhaustiveTargets()
	if err != nil {
		return nil, err
	}
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
	trans := transitionsOf(s.view, s.q.User)
	reduction := make([][]float64, len(h))
	for i, cand := range h {
		row := make([]float64, len(targets))
		n := cand.edge.To
		for k := range targets {
			switch cand.op {
			case Remove:
				row[k] = trans[edgeKey{n, cand.edge.Type}] * (cols[k][n] - s.toWNI[n])
			case Reweight:
				row[k] = cand.transDelta * (s.toWNI[n] - cols[k][n])
			default: // Add
				row[k] = s.toWNI[n] - cols[k][n]
			}
		}
		reduction[i] = row
	}
	threshold := make([]float64, len(targets))
	for _, e := range s.ex.g.OutEdgesOfType(s.q.User, opts.AllowedEdgeTypes) {
		w := trans[edgeKey{e.To, e.Type}]
		for k := range targets {
			threshold[k] += w * (cols[k][e.To] - s.toWNI[e.To])
		}
	}

	maxSize := opts.MaxCombinationSize
	if maxSize > len(h) {
		maxSize = len(h)
	}
	type survivor struct {
		idx    []int
		margin float64 // worst-coordinate slack, for ordering
	}
	// With the default TargetRank of 1 a combination must dominate every
	// target; placing WNI at rank k only requires beating all but k−1
	// of them, so up to k−1 negative-slack columns are tolerated.
	allowedMisses := s.ex.opts.TargetRank - 1

	// The strategy as a pure generator: per size, run the domination
	// filter over all combinations, order the survivors by margin, and
	// yield them for verification.
	gen := func(yield func(cands []candidate) bool) error {
		for size := 1; size <= maxSize; size++ {
			if err := s.canceled(); err != nil {
				return err
			}
			var survivors []survivor
			combinations(len(h), size, func(idx []int) bool {
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
							return true // fails the domination filter
						}
						continue
					}
					if slack < worst {
						worst = slack
					}
				}
				survivors = append(survivors, survivor{idx: append([]int(nil), idx...), margin: worst})
				return true
			})
			sort.Slice(survivors, func(i, j int) bool {
				if !fmath.Eq(survivors[i].margin, survivors[j].margin) {
					return survivors[i].margin > survivors[j].margin
				}
				return lexLess(survivors[i].idx, survivors[j].idx)
			})
			for _, sv := range survivors {
				selected := make([]candidate, len(sv.idx))
				for i, j := range sv.idx {
					selected[i] = h[j]
				}
				if !yield(selected) {
					return nil
				}
			}
		}
		return nil
	}

	if !withCheck {
		// Direct baseline: trust the threshold filter — the first
		// surviving combination is returned unverified, so the stream is
		// consumed inline rather than through runChecks.
		var first *Explanation
		if err := gen(func(cands []candidate) bool {
			first = s.found(cands, false, hin.InvalidNode)
			return false
		}); err != nil {
			return nil, err
		}
		if first != nil {
			return first, nil
		}
		return nil, fmt.Errorf("%w (exhaustive, %s mode: |H|=%d, |T|=%d, %d combos, %d checks)",
			ErrNoExplanation, s.mode, len(h), len(targets), s.stats.CombosExamined, s.stats.Tests)
	}

	out, err := s.runChecks(gen)
	if err != nil {
		return nil, err
	}
	if out.expl != nil {
		return out.expl, nil
	}
	err = fmt.Errorf("%w (exhaustive, %s mode: |H|=%d, |T|=%d, %d combos, %d checks)",
		ErrNoExplanation, s.mode, len(h), len(targets), s.stats.CombosExamined, s.stats.Tests)
	if out.budgetHit {
		err = errors.Join(err, ErrBudgetExhausted)
	}
	return nil, err
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
// removed, as in the running example).
func (s *session) exhaustiveTargets() ([]hin.NodeID, error) {
	top, err := s.ex.r.TopNContext(s.ctx, s.q.User, s.ex.opts.TopKTargets+1)
	if err != nil {
		return nil, s.wrapCtx(err)
	}
	targets := make([]hin.NodeID, 0, s.ex.opts.TopKTargets)
	for _, sc := range top {
		if sc.Node == s.q.WNI {
			continue
		}
		targets = append(targets, sc.Node)
		if len(targets) == s.ex.opts.TopKTargets {
			break
		}
	}
	return targets, nil
}

// targetColumns returns PPR(·, t) for every target, fetched together
// through session.reverseColumns: one graph pass drains whatever the
// vector cache does not hold. The current recommendation is usually
// among the targets and its column is the session's own.
func (s *session) targetColumns(targets []hin.NodeID) ([]ppr.Vector, error) {
	need := slices.DeleteFunc(slices.Clone(targets), func(t hin.NodeID) bool { return t == s.rec })
	cols, err := s.reverseColumns(need...)
	if err != nil {
		return nil, s.wrapCtx(err)
	}
	if k := slices.Index(targets, s.rec); k >= 0 {
		cols = slices.Insert(cols, k, s.toRec)
	}
	return cols, nil
}

// exhaustiveCandidates returns H without sign pruning, capped at
// MaxSearchSpace by absolute contribution, in search-space order.
func (s *session) exhaustiveCandidates() []candidate {
	limit := s.ex.opts.MaxSearchSpace
	if limit <= 0 || len(s.cands) <= limit {
		s.sortAll()
		return slices.Clone(s.cands)
	}
	h := slices.Clone(s.cands)
	if s.mode == Add {
		// Add candidates have distinct endpoints, so the cap's order is
		// total and selecting its first entries picks what a sort would.
		selectBest(h, limit, absCmp)
	} else {
		// Another mode's row can hold two edge types to one item, where
		// the order is not total: keep sort.Slice's pick off the sorted list.
		sort.Slice(h, func(i, j int) bool { return absCmp(h[i], h[j]) < 0 })
	}
	h = h[:limit]
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

package emigre

import (
	"errors"
	"fmt"
	"sort"

	"github.com/why-not-xai/emigre/internal/fmath"
)

// powerset implements Algorithm 4: restrict H to positive-contribution
// candidates, then examine candidate combinations in ascending size
// order (favoring minimal explanations) and, within a size, in
// descending total-contribution order (favoring promising ones). A
// combination whose total contribution flips the gap estimate is
// verified with CHECK; the first verified combination is returned.
//
// |H| is capped at Options.MaxSearchSpace (keeping the strongest
// candidates) and combination sizes at Options.MaxCombinationSize, so
// the powerset never degenerates into the full 2^|H| sweep the paper's
// complexity analysis warns about (§5.3).
//
// The strategy is a pure generator: it emits gap-flipping combinations
// in examination order and the shared CHECK stream (runChecks)
// verifies them.
func (s *session) powerset() (*Explanation, error) {
	h := s.positiveCandidates(s.ex.opts.MaxSearchSpace)
	if len(h) == 0 {
		return nil, fmt.Errorf("%w (powerset, %s mode: no positive-contribution candidates)",
			ErrNoExplanation, s.mode)
	}
	maxSize := s.ex.opts.MaxCombinationSize
	if maxSize > len(h) {
		maxSize = len(h)
	}
	type combo struct {
		idx   []int
		total float64
	}
	gen := func(yield func(cands []candidate) bool) error {
		for size := 1; size <= maxSize; size++ {
			if err := s.canceled(); err != nil {
				return err
			}
			combos := make([]combo, 0, comboCapHint(len(h), size))
			combinations(len(h), size, func(idx []int) bool {
				var total float64
				for _, i := range idx {
					total += h[i].contribution
				}
				combos = append(combos, combo{idx: append([]int(nil), idx...), total: total})
				return true
			})
			sort.Slice(combos, func(i, j int) bool {
				if !fmath.Eq(combos[i].total, combos[j].total) {
					return combos[i].total > combos[j].total
				}
				return lexLess(combos[i].idx, combos[j].idx)
			})
			for _, cb := range combos {
				s.stats.CombosExamined++
				if !s.gapFlipped(s.tau - cb.total) {
					// This and all later combos of this size cannot flip the
					// estimated gap; move on to the next size.
					break
				}
				selected := make([]candidate, len(cb.idx))
				for i, j := range cb.idx {
					selected[i] = h[j]
				}
				if !yield(selected) {
					return nil
				}
			}
		}
		return nil
	}
	out, err := s.runChecks(gen)
	if err != nil {
		return nil, err
	}
	if out.expl != nil {
		return out.expl, nil
	}
	err = fmt.Errorf("%w (powerset, %s mode: |H|=%d, %d combos, %d checks)",
		ErrNoExplanation, s.mode, len(h), s.stats.CombosExamined, s.stats.Tests)
	if out.budgetHit {
		err = errors.Join(err, ErrBudgetExhausted)
	}
	return nil, err
}

func lexLess(a, b []int) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

package emigre

import (
	"errors"
	"fmt"
)

// incremental implements Algorithm 3: commit candidate edges one at a
// time in descending contribution order, and once the running gap
// estimate tau flips sign, verify after every further commit. The first
// verified edge set is returned. Incremental trades explanation size
// for speed: it never reconsiders a committed edge.
//
// The strategy is a pure generator: it emits the prefix sets whose
// estimated gap has flipped, in commit order, and the shared CHECK
// stream (runChecks) verifies them.
func (s *session) incremental() (*Explanation, error) {
	gen := func(yield func(cands []candidate) bool) error {
		var selected []candidate
		tau := s.tau
		// Non-positive contributions cannot help WNI (Eq. 5/6 discussion):
		// the walk reads the positive ones, ordered as far as it gets.
		for i := 0; i < s.npos; i++ {
			if err := s.canceled(); err != nil {
				return err
			}
			s.order(i + 1)
			cand := s.cands[i]
			selected = append(selected, cand)
			tau -= cand.contribution
			if !s.gapFlipped(tau) {
				continue // rec still estimated to dominate: keep accumulating
			}
			// The CHECK is done with the prefix when yield returns, so
			// selected may keep growing in place.
			if !yield(selected) {
				return nil
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
	if out.budgetHit {
		return nil, fmt.Errorf("%w (incremental)", errors.Join(ErrNoExplanation, out.budgetErr))
	}
	return nil, fmt.Errorf("%w (incremental, %s mode: %d candidates, %d checks)",
		ErrNoExplanation, s.mode, len(s.cands), s.stats.Tests)
}

package emigre

import (
	"errors"
	"fmt"
)

// bruteForce is the paper's Remove-mode baseline (§6.2): enumerate every
// subset of the user's allowed past actions in ascending size order and
// CHECK each one. When it succeeds within its budget, the returned
// explanation is minimal: no smaller subset is an explanation, because
// all smaller subsets were checked first.
//
// Full enumeration is 2^|A|; the paper accepts the cost ("the process is
// expected to consume a lot of processing time"), we bound it with
// Options.MaxCombinationSize and Options.MaxTests instead. With the
// default budget every subset of size ≤ 5 of a 20-action user is
// examined — well past the explanation sizes the paper observes.
//
// The strategy is a pure generator: it emits every subset in
// enumeration order and the shared CHECK stream (runChecks) verifies
// them. It has no pruning, so its stream is long and every set genuinely
// needs a CHECK.
func (s *session) bruteForce() (*Explanation, error) {
	h := s.cands // Algorithm 1's A, with T_e applied; no sign pruning
	if len(h) == 0 {
		return nil, fmt.Errorf("%w (brute force: user has no removable actions)", ErrNoExplanation)
	}
	maxSize := s.ex.opts.MaxCombinationSize
	if maxSize > len(h) {
		maxSize = len(h)
	}
	gen := func(yield func(cands []candidate) bool) error {
		for size := 1; size <= maxSize; size++ {
			if err := s.canceled(); err != nil {
				return err
			}
			stopped := false
			combinations(len(h), size, func(idx []int) bool {
				s.stats.CombosExamined++
				selected := make([]candidate, len(idx))
				for i, j := range idx {
					selected[i] = h[j]
				}
				if !yield(selected) {
					stopped = true
					return false
				}
				return true
			})
			if stopped {
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
	err = fmt.Errorf("%w (brute force: |A|=%d, %d subsets checked)",
		ErrNoExplanation, len(h), s.stats.Tests)
	if out.budgetHit {
		err = errors.Join(err, ErrBudgetExhausted)
	}
	return nil, err
}

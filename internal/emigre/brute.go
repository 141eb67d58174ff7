package emigre

import "fmt"

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
// The stream has no scoring rule, so it is not ranked: subsets go to
// CHECK straight from the enumeration, through the yield buffer of the
// ranked streams.
func (s *session) bruteForce() (*Explanation, error) {
	h := s.cands // Algorithm 1's A, with T_e applied; no sign pruning
	if len(h) == 0 {
		return nil, fmt.Errorf("%w (brute force: user has no removable actions)", ErrNoExplanation)
	}
	gen := func(yield func(cands []candidate) bool) error {
		for size, open := 1, true; open && size <= min(s.ex.opts.MaxCombinationSize, len(h)); size++ {
			if err := s.canceled(); err != nil {
				return err
			}
			combinations(len(h), size, func(idx []int) bool {
				s.stats.CombosExamined++
				open = yield(s.pick(h, idx))
				return open
			})
		}
		return nil
	}
	return s.search(gen, func() string {
		return fmt.Sprintf("brute force: |A|=%d, %d subsets checked", len(h), s.stats.Tests)
	})
}

package emigre

import "fmt"

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
func (s *session) powerset() (*Explanation, error) {
	h := s.positiveCandidates(s.ex.opts.MaxSearchSpace)
	if len(h) == 0 {
		return nil, fmt.Errorf("%w (powerset, %s mode: no positive-contribution candidates)",
			ErrNoExplanation, s.mode)
	}
	return s.search(s.powersetStream(h), func() string {
		return fmt.Sprintf("powerset, %s mode: |H|=%d, %d combos, %d checks",
			s.mode, len(h), s.stats.CombosExamined, s.stats.Tests)
	})
}

// powersetStream is Algorithm 4's rule over the ranked stream: every
// combination is kept and scored by its total contribution. The first
// combination whose total does not flip the gap estimate ends its size,
// since no later one of that size sums to more; each combination looked
// at counts as examined.
func (s *session) powersetStream(h []candidate) checkStream {
	return s.ranked(h, func(idx []int) (float64, bool) {
		var sum float64
		for _, i := range idx {
			sum += h[i].contribution
		}
		return sum, true
	}, func(sum float64) bool {
		s.stats.CombosExamined++
		return !s.gapFlipped(s.tau - sum)
	})
}

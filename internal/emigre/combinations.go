package emigre

import (
	"sort"

	"github.com/why-not-xai/emigre/internal/fmath"
	"github.com/why-not-xai/emigre/internal/freelist"
)

// combinations enumerates all index combinations of size c from
// {0..n-1} in lexicographic order, invoking visit with a reused buffer.
// Enumeration stops early when visit returns false.
func combinations(n, c int, visit func(idx []int) bool) {
	if c <= 0 || c > n {
		return
	}
	idx := make([]int, c)
	for i := range idx {
		idx[i] = i
	}
	// The enumeration itself has no context; every caller polls for
	// cancellation inside visit and stops the loop by returning false.
	//lint:allow ctxpoll callers poll ctx in the visit callback
	for {
		if !visit(idx) {
			return
		}
		// Advance to the next combination.
		i := c - 1
		for i >= 0 && idx[i] == n-c+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < c; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// ranked is the stream of a combinatorial strategy (Algorithms 4 and 5),
// which differ only in their rule: score gives a combination of h's
// indices its score and says whether the strategy keeps it. Sizes ascend
// from 1 to MaxCombinationSize; within a size every combination is
// scored, and the kept ones are yielded best score first. Equal scores
// (fmath.Eq) keep enumeration order, which is lexicographic. A non-nil
// ends sees each kept score before its combination is yielded; once it
// returns true, the rest of that size is skipped.
//
// The stream borrows its storage from rankings for its run, so a size
// costs a few allocations, not a few per combination, and the storage
// grows once per process rather than once per explain.
func (s *session) ranked(h []candidate, score func(idx []int) (float64, bool), ends func(score float64) bool) checkStream {
	return func(yield func(cands []candidate) bool) error {
		r, _ := rankings.Get()
		defer func() {
			if cap(r.scores) <= maxKeptRanking {
				rankings.Put(r)
			}
		}()
		for size := 1; size <= min(s.ex.opts.MaxCombinationSize, len(h)); size++ {
			if err := s.canceled(); err != nil {
				return err
			}
			r.tuples, r.order, r.scores = r.tuples[:0], r.order[:0], r.scores[:0]
			combinations(len(h), size, func(idx []int) bool {
				if v, keep := score(idx); keep {
					r.order = append(r.order, len(r.scores))
					r.scores = append(r.scores, v)
					r.tuples = append(r.tuples, idx...)
				}
				return true
			})
			sort.Slice(r.order, func(i, j int) bool {
				a, b := r.order[i], r.order[j]
				if !fmath.Eq(r.scores[a], r.scores[b]) {
					return r.scores[a] > r.scores[b]
				}
				return a < b
			})
			for _, k := range r.order {
				if ends != nil && ends(r.scores[k]) {
					break
				}
				if !yield(s.pick(h, r.tuples[k*size:(k+1)*size])) {
					return nil
				}
			}
		}
		return nil
	}
}

// rankings is the free list of the ranked streams' storage. With the
// default caps a ranking holds at most C(16, 5) = 4 368 combinations; one
// grown past maxKeptRanking, under caps far above the defaults, is
// dropped rather than kept resident.
var rankings freelist.List[ranking]

const maxKeptRanking = 1 << 16

// ranking is a ranked stream's storage: one size's kept index tuples
// back to back, their scores, and their order, a permutation of their
// positions.
type ranking struct {
	tuples, order []int
	scores        []float64
}

// pick fills the session's yield buffer with the candidates of h at idx.
// Whatever keeps a yielded set copies it (noteAttempt, counterfactual,
// found), so the next pick may overwrite it.
func (s *session) pick(h []candidate, idx []int) []candidate {
	s.picked = s.picked[:0]
	for _, i := range idx {
		s.picked = append(s.picked, h[i])
	}
	return s.picked
}

package emigre

import (
	"errors"
	"fmt"

	"github.com/why-not-xai/emigre/internal/fault"
)

// checkSite fires at the head of every CHECK evaluation (session.check).
// With a sleep action it deterministically stretches CHECK latency — the
// lever the chaos suite and the CI chaos-smoke job use to force the
// server's partial answers.
var checkSite = fault.Register("emigre.check")

// This file is the CHECK stream shared by every search strategy.
//
// The strategies of Algorithms 3-5 (incremental, powerset, exhaustive,
// brute force) differ only in *which* candidate sets they propose and in
// *what order*; the expensive part — build a counterfactual overlay,
// re-run the recommender, compare ranks — is the same CHECK step for all
// of them. The strategies therefore act as pure *generators*: each one
// emits an ordered stream of candidate sets, and session.runChecks checks
// them inline, in stream order, and stops at the first accepted set —
// the paper's (and PRINCE's) first-passing-set semantics.

// checkStream is a strategy rendered as a generator: it yields candidate
// sets in CHECK order until yield returns false or the stream is
// exhausted. A false yield ends the stream (accepted set, budget,
// cancellation); the generator's own error — typically a CanceledError
// from a loop-boundary poll — is surfaced only when the evaluator did not
// decide first.
type checkStream func(yield func(cands []candidate) bool) error

// pipelineOutcome is what a stream evaluation produced.
type pipelineOutcome struct {
	// expl is the first accepted candidate set in stream order, nil when
	// the stream was exhausted (or stopped) without an accept.
	expl *Explanation
	// budgetHit reports that the stream reached the MaxTests budget;
	// budgetErr is then the CHECK budget error (strategies fold it into
	// their own error message).
	budgetHit bool
	budgetErr error
}

// budgetExhausted builds the CHECK-budget error for a given test count.
// Strategy error messages embed it.
func budgetExhausted(tests int) error {
	return fmt.Errorf("%w: %d CHECK invocations", ErrBudgetExhausted, tests)
}

// runChecks evaluates the candidate-set stream produced by gen and
// returns the first accepted set in stream order.
func (s *session) runChecks(gen checkStream) (pipelineOutcome, error) {
	var (
		out     pipelineOutcome
		hardErr error
	)
	genErr := gen(func(cands []candidate) bool {
		s.noteAttempt(cands)
		ok, top, err := s.check(cands)
		if err != nil {
			if errors.Is(err, ErrBudgetExhausted) {
				out.budgetHit = true
				out.budgetErr = err
				return false
			}
			hardErr = err
			return false
		}
		if ok {
			out.expl = s.found(cands, true, top)
			return false
		}
		return true
	})
	if hardErr != nil {
		return out, hardErr
	}
	if genErr != nil && out.expl == nil && !out.budgetHit {
		return out, genErr
	}
	return out, nil
}

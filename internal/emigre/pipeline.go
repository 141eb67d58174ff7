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
// the paper's (and PRINCE's) first-passing-set semantics. Powerset and
// Exhaustive are one stream with two scoring rules (session.ranked).

// checkStream is a strategy rendered as a generator: it yields candidate
// sets in CHECK order until yield returns false or the stream is
// exhausted. A false yield ends the stream (accepted set, budget,
// cancellation); the generator's own error — typically a CanceledError
// from a loop-boundary poll — is surfaced only when the evaluator did not
// decide first.
type checkStream func(yield func(cands []candidate) bool) error

// budgetExhausted builds the CHECK-budget error for a given test count.
// check returns it at the budget; Incremental's error message embeds it.
func budgetExhausted(tests int) error {
	return fmt.Errorf("%w: %d CHECK invocations", ErrBudgetExhausted, tests)
}

// runChecks evaluates the candidate-set stream produced by gen and
// returns the first accepted set in stream order, nil when the stream
// ended without one; budgetHit reports that the MaxTests budget ended
// it.
func (s *session) runChecks(gen checkStream) (expl *Explanation, budgetHit bool, err error) {
	genErr := gen(func(cands []candidate) bool {
		s.noteAttempt(cands)
		ok, top, checkErr := s.check(cands)
		switch {
		case errors.Is(checkErr, ErrBudgetExhausted):
			budgetHit = true
		case checkErr != nil:
			err = checkErr
		case ok:
			expl = s.found(cands, true, top)
		default:
			return true
		}
		return false
	})
	if err == nil && expl == nil && !budgetHit {
		err = genErr
	}
	return expl, budgetHit, err
}

// search runs a strategy's stream through runChecks and returns its first
// accepted set. A stream that ends without one is ErrNoExplanation with
// the strategy's detail, read once the stream is done, joined with
// ErrBudgetExhausted when MaxTests ended it.
func (s *session) search(gen checkStream, detail func() string) (*Explanation, error) {
	expl, budgetHit, err := s.runChecks(gen)
	if err != nil || expl != nil {
		return expl, err
	}
	err = fmt.Errorf("%w (%s)", ErrNoExplanation, detail())
	if budgetHit {
		err = errors.Join(err, ErrBudgetExhausted)
	}
	return nil, err
}

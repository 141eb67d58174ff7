// Fixture for the ctxpoll analyzer: the package is named ppr so the
// name-scoped analyzer applies. Trailing want-marker comments flag the
// lines expected to produce a diagnostic with the quoted substring.
package ppr

import "context"

func ctxErr(ctx context.Context) error { return ctx.Err() }

// bad: no cancellation check anywhere in the function.
func spin() int {
	n := 0
	for { // want "cancellation"
		n++
		if n > 1000000 {
			return n
		}
	}
}

// bad: a loop inside a function literal cannot rely on the enclosing
// function's polls.
func spinLit(ctx context.Context) func() {
	_ = ctx.Err()
	return func() {
		for { // want "cancellation"
		}
	}
}

// good: polls ctx.Err directly.
func pollDirect(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
}

// good: hands ctx to a helper, which polls on the loop's behalf.
func pollHelper(ctx context.Context) error {
	for {
		if err := ctxErr(ctx); err != nil {
			return err
		}
	}
}

// good: the inner unbounded loop is covered by the poll in the
// enclosing bounded loop.
func pollOuter(ctx context.Context, steps int) error {
	for i := 0; i < steps; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		for {
			if i%2 == 0 {
				break
			}
		}
	}
	return nil
}

type session struct{ ctx context.Context }

func (s *session) canceled() error { return s.ctx.Err() }

// good: a call to a `canceled` method counts as a poll.
func pollSession(s *session) {
	for {
		if s.canceled() != nil {
			return
		}
	}
}

// good: suppressed with a reasoned directive.
func enumerate(visit func() bool) {
	//lint:allow ctxpoll callers poll ctx in the visit callback
	for {
		if !visit() {
			return
		}
	}
}

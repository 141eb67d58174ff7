// Fixture caller package for the rawengine analyzer mirroring the CHECK
// pipeline: the package is named emigre — one of the cache-routed
// packages — so its speculative workers must not invoke engines raw.
package emigre

import "fixture.example/m/rawengine/ppr"

type session struct {
	rev *ppr.ReversePush
}

// bad: a pipeline worker computing its verdict straight off the engine
// bypasses cache identity (and the singleflight dedup under concurrent
// workers).
func (s *session) checkOnce(t int) ppr.Vector {
	return s.rev.ToTarget(t) // want "cache"
}

// good: the designated helper is the cache-miss compute path, one
// blocked drain for every missing column.
func (s *session) reverseColumns(ts ...int) []ppr.Vector {
	return s.rev.ToTargets(ts)
}

// good: workers route every column through the helper.
func (s *session) worker(ts []int) []ppr.Vector {
	return s.reverseColumns(ts...)
}

// bad: Alg. 5's target fetch draining its batch straight off the engine
// bypasses the cache for K columns at once.
func (s *session) targetColumns(ts []int) []ppr.Vector {
	return s.rev.ToTargets(ts) // want "cache"
}

// bad: a speculative worker warm-starting its own delta check straight
// off the engine sidesteps the cached base pair the session fetched.
func (s *session) deltaCheck(base *ppr.PushResult, rows []int) *ppr.PushResult {
	return ppr.NewForwardPush().UpdateForEdit(base, rows) // want "cache"
}

// good: the rival gate's session-scoped columns are the one designated
// uncached route.
func (s *session) gateColumns(ts []int) []ppr.Vector {
	return s.rev.ToTargets(ts)
}

// bad: learning a rival straight off the engine, outside gateColumns,
// still trips — the allowance names one helper, not the gate.
func (s *session) learn(u, winner int) []ppr.Vector {
	return s.rev.ToTargets([]int{u, winner}) // want "cache"
}

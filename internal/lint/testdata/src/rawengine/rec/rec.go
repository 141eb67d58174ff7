// Fixture caller package for the rawengine analyzer: named rec, one of
// the cache-routed packages.
package rec

import "fixture.example/m/rawengine/ppr"

type Recommender struct {
	engine ppr.Engine
}

// bad: computes a column bypassing the cache.
func (r *Recommender) Contributions(t int) ppr.Vector {
	return ppr.NewReversePush().ToTarget(t) // want "cache"
}

// bad: interface dispatch is still a raw engine call.
func (r *Recommender) Scores(u int) ppr.Vector {
	return r.engine.FromSource(u) // want "cache"
}

// good: the designated routing helper is the cache-miss compute path.
func (r *Recommender) reverseColumn(t int) ppr.Vector {
	return ppr.NewReversePush().ToTarget(t)
}

// good: callers route through the helper.
func (r *Recommender) Shares(t int) ppr.Vector {
	return r.reverseColumn(t)
}

// bad: fetching a push state raw bypasses the cache.
func (r *Recommender) BasePair(u int) *ppr.PushResult {
	return ppr.NewForwardPush().RunContext(u) // want "cache"
}

// bad: no routing helper warm-starts any more, so every resume is raw.
func (r *Recommender) WarmScores(base *ppr.PushResult, rows []int) *ppr.PushResult {
	return ppr.NewForwardPush().UpdateForEdit(base, rows) // want "cache"
}

// good: the one helper allowed to borrow a drain's scores.
func (r *Recommender) rankCold(u int) (top int) {
	ppr.NewForwardPush().LendFromSource(u, func(v ppr.Vector) { top = len(v) })
	return top
}

// bad: a routing helper approved for the cached entry points still may
// not borrow scores.
func (r *Recommender) scores(u int) (top int) {
	ppr.NewForwardPush().LendFromSource(u, func(v ppr.Vector) { top = len(v) }) // want "cache"
	return top
}

// bad: borrowing scores anywhere else bypasses the cache.
func (r *Recommender) TopN(u int) (top int) {
	ppr.NewForwardPush().LendFromSource(u, func(v ppr.Vector) { top = len(v) }) // want "cache"
	return top
}

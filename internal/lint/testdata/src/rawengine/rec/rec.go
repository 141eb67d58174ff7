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

// good: the cold CHECK's early-stopped push is the one uncached forward
// route.
func (r *Recommender) TopDecided(u int) *ppr.PushResult {
	return ppr.NewForwardPush().RunUntil(u, nil)
}

// bad: an early-stopped push outside TopDecided still trips.
func (r *Recommender) Decide(u int) *ppr.PushResult {
	return ppr.NewForwardPush().RunUntil(u, nil) // want "cache"
}

// bad: no routing helper warm-starts any more, so every resume is raw.
func (r *Recommender) WarmScores(base *ppr.PushResult, rows []int) *ppr.PushResult {
	return ppr.NewForwardPush().UpdateForEdit(base, rows) // want "cache"
}

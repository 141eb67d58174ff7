package ppr

import "github.com/why-not-xai/emigre/internal/fault"

// Failpoint sites inside each engine's inner loop, consulted on the
// same cadence as the cancellation polls (every ctxCheckInterval swept
// nodes, or once per power-iteration sweep; a packed reverse group of
// up to eight columns polls once per chunk for all of them) so an armed site
// costs nothing extra on the unarmed hot path and fires mid-computation
// when armed — exactly where a real engine failure (OOM-killed shard,
// corrupted snapshot read, scheduling stall) would surface.
var (
	forwardLoopSite = fault.Register("ppr.forward.loop")
	reverseLoopSite = fault.Register("ppr.reverse.loop")
	powerSweepSite  = fault.Register("ppr.power.sweep")
	updateLoopSite  = fault.Register("ppr.update.loop")
)

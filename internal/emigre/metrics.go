package emigre

import "github.com/why-not-xai/emigre/internal/obs"

// CHECK-path counters on the process-global obs registry: which step
// decided each evaluation — the process-wide sums of every session's
// Stats.Gated and Stats.Cold.
var (
	gatedChecks = obs.Default().Counter("emigre_check_gated_total",
		"CHECK evaluations rejected by the rival gate without a push.")
	coldChecks = obs.Default().Counter("emigre_check_cold_total",
		"CHECK evaluations decided by a cold PPR run.")
)

// record counts one CHECK decided at the step c stands for.
func record(c *obs.Counter) {
	if obs.Enabled() {
		c.Inc()
	}
}

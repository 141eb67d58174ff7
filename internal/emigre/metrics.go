package emigre

import "github.com/why-not-xai/emigre/internal/obs"

// CHECK-path counters on the process-global obs registry: which step
// decided each evaluation. They are tallied at execution time, on
// whichever goroutine ran it, so under the parallel pipeline they
// include speculative work — unlike the Stats fields, which the
// committer folds in stream order for committed checks only.
var (
	gatedChecks = obs.Default().Counter("emigre_check_gated_total",
		"CHECK evaluations rejected by the rival gate without a push.")
	deltaScreens = obs.Default().Counter("emigre_check_delta_screened_total",
		"CHECK evaluations decided or pre-screened on warm-start delta estimates.")
	deltaFallbacksC = obs.Default().Counter("emigre_check_delta_fallbacks_total",
		"CHECK evaluations whose edit set exceeded the warm screen's cap and ran a full recompute.")
)

// record counts one CHECK decided at the step c stands for.
func record(c *obs.Counter) {
	if obs.Enabled() {
		c.Inc()
	}
}

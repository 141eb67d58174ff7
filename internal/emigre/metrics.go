package emigre

import "github.com/why-not-xai/emigre/internal/obs"

// Delta-vs-full CHECK counters on the process-global obs registry.
// They are tallied at execution time (each screen or fallback as it
// happens, on whichever goroutine ran it), so under the parallel
// pipeline they include speculative work — unlike the Stats fields,
// which the committer folds in stream order and which therefore stay
// identical across worker counts.
var (
	deltaScreens = obs.Default().Counter("emigre_check_delta_screened_total",
		"CHECK evaluations decided or pre-screened on warm-start delta estimates.")
	deltaFallbacksC = obs.Default().Counter("emigre_check_delta_fallbacks_total",
		"CHECK evaluations whose edit set exceeded the warm screen's cap and ran a full recompute.")
)

func recordDeltaScreen() {
	if !obs.Enabled() {
		return
	}
	deltaScreens.Inc()
}

func recordDeltaFallback() {
	if !obs.Enabled() {
		return
	}
	deltaFallbacksC.Inc()
}

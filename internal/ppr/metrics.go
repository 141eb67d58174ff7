package ppr

import "github.com/why-not-xai/emigre/internal/obs"

// Engine-level metrics, exported on the process-global obs registry:
// the engines already tally their work locally (push counts, power
// sweeps), so instrumentation is a handful of batched
// counter adds at the end of each run — never inside the hot loops.
// The residual-mass histogram needs an O(n) sum the engines do not
// otherwise compute; it is gated on obs.Enabled so disabling metrics
// removes the pass entirely.
// Each family's name literal lives in exactly one helper so help
// strings and bucket layouts cannot drift between per-engine variants
// (the metricname vet check enforces this repo-wide).
func runsCounter(engine string) *obs.Counter {
	return obs.Default().Counter("emigre_ppr_runs_total",
		"Completed PPR engine runs by engine.", obs.L("engine", engine))
}

func pushesCounter(engine string) *obs.Counter {
	return obs.Default().Counter("emigre_ppr_pushes_total",
		"Individual local-push operations by engine.", obs.L("engine", engine))
}

// residualMassHistogram spans n·ε (the push termination bound, ~1e-3 on
// the paper's graphs) down to fully drained vectors.
func residualMassHistogram(engine string) *obs.Histogram {
	return obs.Default().Histogram("emigre_ppr_residual_mass",
		"Terminal residual L1 mass of completed push runs.",
		obs.ExpBuckets(1e-9, 10, 10), obs.L("engine", engine))
}

var (
	runsForward       = runsCounter("forward_push")
	runsReverse       = runsCounter("reverse_push")
	runsPower         = runsCounter("power")
	runsForwardUpdate = runsCounter("forward_update")

	pushesForward       = pushesCounter("forward_push")
	pushesReverse       = pushesCounter("reverse_push")
	pushesForwardUpdate = pushesCounter("forward_update")

	powerIterations = obs.Default().Counter("emigre_ppr_iterations_total",
		"Power-iteration sweeps (each O(E)) across both directions.")

	residualMassForward       = residualMassHistogram("forward_push")
	residualMassReverse       = residualMassHistogram("reverse_push")
	residualMassForwardUpdate = residualMassHistogram("forward_update")
)

// recordPush tallies one completed static push run.
func recordPush(runs, pushes *obs.Counter, hist *obs.Histogram, res *PushResult) {
	if !obs.Enabled() {
		return
	}
	runs.Inc()
	pushes.Add(int64(res.Pushes))
	var mass float64
	for _, r := range res.Residuals {
		mass += abs(r)
	}
	hist.Observe(mass)
}

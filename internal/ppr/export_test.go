package ppr

// Test-only exports for the external ppr_test package, whose Lite-graph
// test and benchmark need the recommender, which imports ppr.
type RefWork = refWork

var (
	RefForward      = refForward
	RefForwardScale = refForwardScale
	RefReverse      = refReverse
	Relaxation      = relaxation
	RunMany         = runMany
	SameRun         = sameRun
)

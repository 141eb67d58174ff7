package ppr

// Test-only exports for the external ppr_test package, whose Lite-graph
// test and benchmark need the recommender, which imports ppr.
var (
	RefForward = refForward
	RefReverse = refReverse
	Relaxation = relaxation
	RunMany    = runMany
	SameRun    = sameRun
)

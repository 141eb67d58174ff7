package ppr

// Test-only exports for the external ppr_test package, whose Lite-graph
// test and benchmark need the recommender, which imports ppr.
var (
	RefReverse = refReverse
	Relaxation = relaxation
	RunMany    = runMany
	SameRun    = sameRun
)

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

// ScalarReversePush is NewReversePush with the packed body turned off:
// every column drains through kernel.body.
func ScalarReversePush(p Params) *ReversePush {
	e := NewReversePush(p)
	e.scalar = true
	return e
}

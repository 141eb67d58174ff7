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

// WidthReversePush is NewReversePush draining as a CPU whose widest
// pass is w columns would: 1 through kernel.body alone, 4 through body4,
// 8 through body8 as well.
func WidthReversePush(p Params, w int) *ReversePush {
	e := NewReversePush(p)
	e.width = w
	return e
}

// HostWidths lists the pass widths this CPU runs, narrowest first.
func HostWidths() []int {
	var ws []int
	for _, w := range []int{1, 4, 8} {
		if w <= wide {
			ws = append(ws, w)
		}
	}
	return ws
}

// Fixture engine package for the rawengine analyzer: the package is
// named ppr so methods on its types count as engine entry points.
package ppr

type Vector []float64

type ReversePush struct{}

func NewReversePush() *ReversePush { return &ReversePush{} }

func (*ReversePush) ToTarget(t int) Vector { return nil }

func (*ReversePush) ToTargets(ts []int) []Vector { return nil }

type Engine interface {
	FromSource(s int) Vector
}

type PushResult struct {
	Estimates Vector
	Residuals Vector
}

type ForwardPush struct{}

func NewForwardPush() *ForwardPush { return &ForwardPush{} }

func (*ForwardPush) RunContext(s int) *PushResult { return nil }

func (*ForwardPush) LendFromSource(s int, use func(Vector)) {}

func (*ForwardPush) UpdateForEdit(base *PushResult, rows []int) *PushResult { return nil }

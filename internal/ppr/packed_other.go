//go:build !amd64

package ppr

import "github.com/why-not-xai/emigre/internal/hin"

// wide is 1 off amd64: every column drains through kernel.body.
const wide = 1

// hasAVX2 and hasAVX512 are false off amd64.
func hasAVX2() bool   { return false }
func hasAVX512() bool { return false }

// body4 and body8 have no body off amd64; wide keeps the drain from
// calling them.
func body4(q *laneState, start []int32, src []hin.NodeID, prob []float64, r, p []float64, lo int, alpha, beta, eps float64) {
	panic("ppr: body4 called without AVX2")
}

func body8(q *laneState, start []int32, src []hin.NodeID, prob []float64, r, p []float64, lo int, alpha, beta, eps float64) {
	panic("ppr: body8 called without AVX-512")
}

//go:build !amd64

package ppr

import "github.com/why-not-xai/emigre/internal/hin"

// packed is false off amd64: every column drains through kernel.body.
const packed = false

// body4 has no body off amd64; packed keeps the drain from calling it.
func body4(q *quad, start []int32, src []hin.NodeID, prob []float64, r, p []float64, lo int, alpha, beta, eps float64) {
	panic("ppr: body4 called without AVX2")
}

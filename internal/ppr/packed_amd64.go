package ppr

import "github.com/why-not-xai/emigre/internal/hin"

// packed reports whether this CPU runs body4: it has AVX2 and the
// operating system saves the YMM registers.
var packed = hasAVX2()

// hasAVX2 reads CPUID leaves 1 and 7 and XCR0: AVX and OSXSAVE in leaf
// 1's ECX, the XMM and YMM state bits in XCR0, AVX2 in leaf 7's EBX.
func hasAVX2() bool {
	if leaves, _, _, _ := cpuid(0, 0); leaves < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

func xgetbv() (lo, hi uint32)

// body4 is kernel.body over four interleaved columns, in packed AVX2
// arithmetic (DESIGN.md §3.1): it drains the nodes lo, …,
// lo+len(start)−2 of r and p, where r[4·x+j] and p[4·x+j] are column
// j's residual and estimate at x, and keeps each column's ω, peak and
// push count in q. Lane j of a node pushes iff |r| > ε there and then
// does exactly kernel.body's multiplies and adds, in the same order; a
// lane that does not push moves δ = +0, which changes no residual or
// estimate (neither is ever −0). bar is read-only.
//
//go:noescape
func body4(q *quad, start []int32, src []hin.NodeID, prob []float64, r, p []float64, lo int, alpha, beta, eps float64)

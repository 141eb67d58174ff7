package ppr

import "github.com/why-not-xai/emigre/internal/hin"

// wide is the most columns one pass of this CPU drains (columns): 8
// where it runs body8, 4 where it runs only body4, 1 where it runs
// neither and every column drains through kernel.body.
var wide = widest(hasAVX2(), hasAVX512())

// widest is wide given the two gates.
func widest(avx2, avx512 bool) int {
	switch {
	case avx2 && avx512:
		return 8
	case avx2:
		return 4
	}
	return 1
}

// hasAVX2 reads CPUID leaves 1 and 7 and XCR0: AVX and OSXSAVE in leaf
// 1's ECX, the XMM and YMM state bits in XCR0, AVX2 in leaf 7's EBX.
func hasAVX2() bool {
	if !osAVX() {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}

// hasAVX512 is hasAVX2's check for body8: AVX512F in leaf 7's EBX, and
// XCR0 saving the XMM and YMM state, the opmasks and both halves of the
// ZMM state.
func hasAVX512() bool {
	if !osAVX() {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&0xe6 != 0xe6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<16) != 0
}

// osAVX reports CPUID leaf 7 present, and AVX and OSXSAVE in leaf 1's
// ECX: the checks both gates share before they read XCR0.
func osAVX() bool {
	if leaves, _, _, _ := cpuid(0, 0); leaves < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	_, _, c, _ := cpuid(1, 0)
	return c&osxsave != 0 && c&avx != 0
}

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

func xgetbv() (lo, hi uint32)

// body4 is kernel.body over four interleaved columns, in packed AVX2
// arithmetic (DESIGN.md §3.1): it drains the nodes lo, …,
// lo+len(start)−2 of r and p, where r[4·x+j] and p[4·x+j] are column
// j's residual and estimate at x, and keeps each column's ω, peak and
// push count in the first four entries of q's arrays. Lane j of a node
// pushes iff |r| > ε there and then does exactly kernel.body's
// multiplies and adds, in the same order; a lane that does not push
// moves δ = +0, which changes no residual or estimate (neither is ever
// −0). bar is read-only.
//
//go:noescape
func body4(q *laneState, start []int32, src []hin.NodeID, prob []float64, r, p []float64, lo int, alpha, beta, eps float64)

// body8 is body4 over eight interleaved columns, r[8·x+j] and p[8·x+j],
// in AVX-512: a lane's push decision is an opmask bit, and δ is
// zero-masked to +0 where the lane does not push. There is no fused
// multiply-add, so every lane rounds as kernel.body does.
//
//go:noescape
func body8(q *laneState, start []int32, src []hin.NodeID, prob []float64, r, p []float64, lo int, alpha, beta, eps float64)

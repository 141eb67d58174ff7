package ppr

import (
	"math"
	"unsafe"

	"github.com/why-not-xai/emigre/internal/hin"
)

// kernel is one local-push drain's state, shared by the forward driver
// (ForwardPush.sweep) and the reverse one (reverseDrain.column): the
// estimates p, the residuals r — n real entries, then hin.InLanes
// scratch slots for the pad lanes, which stay 0 — and the pushes made
// and Σ|r| pushed so far (the forward driver's sweep-mass rule reads
// and resets the latter).
type kernel struct {
	alpha, eps float64
	p, r       Vector
	pushes     int
	pushed     float64
}

// relaxedSweeps bounds the sweeps a drain — a reverse column or a
// forward run — pushes at ω > 1 while its other guards hold: 4× the
// 14–16 sweeps of a Lite-graph drain.
const relaxedSweeps = 64

// relaxation is both drains' over-relaxation factor: Young's SOR
// optimum ω* = 2/(1 + √(1 − ρ²)) for the Jacobi radius ρ = 1 − α of a
// push (Eq. 3 and Eq. 4 alike), 1.31 at α = 0.15.
func relaxation(alpha float64) float64 {
	return 2 / (1 + math.Sqrt(1-(1-alpha)*(1-alpha)))
}

// body unrolls exactly four lanes: this fails to compile unless
// hin.InLanes is 4.
var _ = [1]struct{}{}[hin.InLanes-4]

const (
	idSize    = unsafe.Sizeof(hin.NodeID(0))
	floatSize = unsafe.Sizeof(float64(0))
)

// body is the one push body of both directions. It drains the nodes lo,
// lo+1, …, lo+len(start)−2 in turn: node lo+k pushes iff |r| > ε there,
// moving δ = ω·r off its residual, α·δ into its estimate and
// (1−α)·δ·prob[i] onto r[node[i]] for every lane i in [start[k],
// start[k+1]). The rows are padded (hin.CSR.OutRows, InRows,
// PatchedRow), start sliced from node lo's entry onward. It runs at relaxation omega,
// which drops to 1 at the first push whose |r| exceeds bar, and returns
// the largest |r| it pushed, or peak if that is larger, and the omega
// it ended at, so a driver may split a range between calls. It walks a
// row four lanes at a time without bounds checks: NewCSR's invariant
// keeps every row a whole number of lane groups and every node below
// len(r), and a pad lane adds c·0 = ±0 to a scratch slot, so the real
// lanes see exactly the multiply-adds, in exactly the order, of an
// unpadded loop. At omega = 1, δ is r[v] itself and r[v] − δ is +0.
func (k *kernel) body(start []int32, node []hin.NodeID, prob []float64, lo int, omega, peak, bar float64) (float64, float64) {
	alpha, eps, p, r := k.alpha, k.eps, k.p, k.r
	beta := 1 - alpha
	dst := unsafe.Pointer(unsafe.SliceData(node))
	w := unsafe.Pointer(unsafe.SliceData(prob))
	res := unsafe.Pointer(unsafe.SliceData(r))
	at := func(x hin.NodeID) *float64 { return (*float64)(unsafe.Add(res, uintptr(x)*floatSize)) }
	pushes, pushed := 0, 0.0
	for v, hi := lo, lo+len(start)-1; v < hi; v++ {
		rv := r[v]
		a := math.Abs(rv)
		if a <= eps {
			continue
		}
		if a > peak {
			if peak = a; peak > bar {
				omega = 1
			}
		}
		pushed += a
		delta := omega * rv
		r[v] = rv - delta
		p[v] += alpha * delta
		pushes++
		c := beta * delta
		for i, end := uintptr(start[v-lo]), uintptr(start[v-lo+1]); i < end; i += 4 {
			x := (*[4]hin.NodeID)(unsafe.Add(dst, i*idSize))
			y := (*[4]float64)(unsafe.Add(w, i*floatSize))
			x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
			w0, w1, w2, w3 := y[0], y[1], y[2], y[3]
			*at(x0) += c * w0
			*at(x1) += c * w1
			*at(x2) += c * w2
			*at(x3) += c * w3
		}
	}
	k.pushes += pushes
	k.pushed += pushed
	return peak, omega
}

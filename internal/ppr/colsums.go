package ppr

import "github.com/why-not-xai/emigre/internal/hin"

// columnSumSlack bounds how far ColumnSums may land above the exact
// column sums, as a fraction of the smallest a column sum can be (α, a
// node's own teleport share): 0.1 %.
const columnSumSlack = 1e-3

// ColumnSums returns C with C(i) ≥ Σ_x PPR(x,i) for every node i of csr
// — n times i's global PageRank, dangling mass absorbed — and at most
// columnSumSlack·α above it. Summing Eq. 1 over every source gives the
// fixpoint
//
//	c = α·1 + (1−α)·Wᵀc
//
// which Gauss–Seidel sweeps over the in-rows approach from below: from
// c = 0 every iterate stays under c and, after k sweeps, at or above the
// Jacobi iterate α·Σ_{t<k} ((1−α)Wᵀ)ᵗ·1. The tail the sweeps have not
// reached, α·Σ_{t≥k} ((1−α)Wᵀ)ᵗ·1, is at most n·(1−α)^k in every
// component, because no column of Wᵗ sums past n; adding it makes C an
// upper bound. That takes log(n/(columnSumSlack·α))/log(1/(1−α)) sweeps
// of the in-rows (111 on a 10 k-node graph at α = 0.15). csr must be
// unpatched (CSR.InRows).
func ColumnSums(csr *hin.CSR, p Params) Vector {
	inStart, inSrc, inProb := csr.InRows()
	n, alpha := csr.NumNodes(), p.Alpha
	c := make(Vector, n)
	tail := float64(n)
	for tail > columnSumSlack*alpha {
		for v := range n {
			var s float64
			for i := inStart[v]; i < inStart[v+1]; i++ {
				s += inProb[i] * c[inSrc[i]]
			}
			c[v] = alpha + (1-alpha)*s
		}
		tail *= 1 - alpha
	}
	for v := range c {
		c[v] += tail
	}
	return c
}

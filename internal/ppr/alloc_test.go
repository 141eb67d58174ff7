package ppr

import (
	"context"
	"math/rand"
	"testing"

	"github.com/why-not-xai/emigre/internal/hin"
)

// pushAllocs measures the per-run allocation count of a forward push
// from node 0 over the CSR fast path.
func pushAllocs(t *testing.T, nodes, extra int) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	csr := hin.NewCSR(randomBidirGraph(rng, nodes, extra))
	e := NewForwardPush(DefaultParams())
	return testing.AllocsPerRun(50, func() {
		if _, err := e.RunContext(context.Background(), csr, 0); err != nil {
			t.Fatal(err)
		}
	})
}

// TestForwardPushAllocsConstant pins the push engine's allocation
// shape: RunContext allocates a fixed set of setup buffers (estimates,
// residuals, the result struct) and the inner
// push loop must allocate nothing — so the count per run is a small
// constant, independent of how much of the graph the push visits.
// A size-dependent count means the loop started heap-allocating.
func TestForwardPushAllocsConstant(t *testing.T) {
	small := pushAllocs(t, 50, 100)
	large := pushAllocs(t, 2000, 8000)
	if small != large {
		t.Errorf("allocs per push: %.1f on 50 nodes vs %.1f on 2000 nodes; inner loop is allocating", small, large)
	}
	// The setup buffers above plus minor runtime bookkeeping; the exact
	// figure is pinned loosely so a growslice or map added to the loop
	// trips it, while compiler-version drift does not.
	if small > 8 {
		t.Errorf("allocs per push = %.1f, want <= 8 fixed setup allocations", small)
	}
}

package pprcache

import (
	"context"
	"testing"
)

// TestWarmGetZeroAlloc pins the allocation budget of the hot cache
// path: a warm hit is a shard hash, a map probe, an LRU bump and an
// atomic counter — nothing may reach the heap. CI seeds an allocation
// into Get and requires this pin to fail.
func TestWarmGetZeroAlloc(t *testing.T) {
	c := New(Config{})
	ctx := context.Background()
	k := testKey(1, 7)
	if _, _, err := c.GetOrCompute(ctx, k, constVec(64, 0.25)); err != nil {
		t.Fatal(err)
	}

	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := c.Get(ctx, k); !ok {
			t.Fatal("warm key missed")
		}
	})
	if allocs != 0 {
		t.Errorf("warm Get allocates %.1f objects per call, want 0", allocs)
	}
}

// TestWarmGetOrComputeZeroAlloc: the compute closure must not be
// invoked — or charged — on a warm key.
func TestWarmGetOrComputeZeroAlloc(t *testing.T) {
	c := New(Config{})
	ctx := context.Background()
	k := testKey(2, 9)
	if _, _, err := c.GetOrCompute(ctx, k, constVec(64, 0.25)); err != nil {
		t.Fatal(err)
	}

	// Built once outside the measured loop: constructing a capturing
	// closure per call would be the caller's allocation, not the
	// cache's.
	compute := constVec(64, 0.25)
	allocs := testing.AllocsPerRun(1000, func() {
		_, hit, err := c.GetOrCompute(ctx, k, compute)
		if err != nil || !hit {
			t.Fatalf("warm lookup: hit=%v err=%v", hit, err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm GetOrCompute allocates %.1f objects per call, want 0", allocs)
	}
}

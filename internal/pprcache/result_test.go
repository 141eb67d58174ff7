package pprcache

import (
	"context"
	"sync"
	"testing"

	"github.com/why-not-xai/emigre/internal/ppr"
	"github.com/why-not-xai/emigre/internal/testleak"
)

func constResult(n int, val float64) func(context.Context) (*ppr.PushResult, error) {
	return func(context.Context) (*ppr.PushResult, error) {
		res := &ppr.PushResult{Estimates: make(ppr.Vector, n), Residuals: make(ppr.Vector, n)}
		for i := range res.Estimates {
			res.Estimates[i] = val
			res.Residuals[i] = val / 10
		}
		return res, nil
	}
}

func TestGetOrComputeResultHitAndMiss(t *testing.T) {
	c := New(Config{})
	ctx := context.Background()
	k := testKey(1, 7)

	r1, hit, err := c.GetOrComputeResult(ctx, k, constResult(4, 0.5))
	if err != nil || hit {
		t.Fatalf("first lookup: hit=%v err=%v", hit, err)
	}
	if r1.Residuals == nil {
		t.Fatal("full fill lost its residuals")
	}
	r2, hit, err := c.GetOrComputeResult(ctx, k, func(context.Context) (*ppr.PushResult, error) {
		t.Fatal("compute ran on a warm key")
		return nil, nil
	})
	if err != nil || !hit {
		t.Fatalf("second lookup: hit=%v err=%v", hit, err)
	}
	if r1 != r2 {
		t.Fatal("warm hit did not return the shared resident result")
	}
	// The vector-level API shares the same entry.
	vec, hit, err := c.GetOrCompute(ctx, k, func(context.Context) (ppr.Vector, error) {
		t.Fatal("vector compute ran despite a resident full entry")
		return nil, nil
	})
	if err != nil || !hit {
		t.Fatalf("vector lookup on full entry: hit=%v err=%v", hit, err)
	}
	if &vec[0] != &r1.Estimates[0] {
		t.Fatal("vector hit did not alias the resident result's estimates")
	}
	if s := c.Stats(); s.Hits != 2 || s.Misses != 1 || s.Entries != 1 || s.Upgrades != 0 {
		t.Fatalf("stats = %+v, want 2 hits / 1 miss / 1 entry / 0 upgrades", s)
	}
}

func TestResultUpgradesVectorOnlyEntry(t *testing.T) {
	c := New(Config{})
	ctx := context.Background()
	k := testKey(2, 9)

	vec, _, err := c.GetOrCompute(ctx, k, constVec(8, 1))
	if err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	if before.Entries != 1 {
		t.Fatalf("entries = %d, want 1", before.Entries)
	}

	res, hit, err := c.GetOrComputeResult(ctx, k, constResult(8, 2))
	if err != nil || hit {
		t.Fatalf("upgrade lookup: hit=%v err=%v", hit, err)
	}
	if res.Residuals == nil {
		t.Fatal("upgraded entry has no residuals")
	}
	after := c.Stats()
	if after.Upgrades != 1 {
		t.Fatalf("upgrades = %d, want 1", after.Upgrades)
	}
	if after.Misses != before.Misses {
		t.Fatalf("upgrade was charged as a miss (%d -> %d)", before.Misses, after.Misses)
	}
	if after.Entries != 1 {
		t.Fatalf("upgrade duplicated the entry: %d resident", after.Entries)
	}
	if after.Bytes != before.Bytes+8*8 {
		t.Fatalf("bytes %d -> %d, want +%d for the resident residuals", before.Bytes, after.Bytes, 8*8)
	}
	// Vector-level callers now see the upgraded estimates.
	vec2, hit, err := c.GetOrCompute(ctx, k, constVec(8, 9))
	if err != nil || !hit {
		t.Fatalf("vector lookup after upgrade: hit=%v err=%v", hit, err)
	}
	if &vec2[0] == &vec[0] {
		t.Fatal("upgrade kept the old vector payload resident")
	}
	if &vec2[0] != &res.Estimates[0] {
		t.Fatal("vector lookup does not alias the upgraded result")
	}
}

func TestResultSingleflightCollapse(t *testing.T) {
	testleak.Check(t)
	c := New(Config{})
	ctx := context.Background()
	k := testKey(5, 5)
	started := make(chan struct{})
	release := make(chan struct{})
	fills := 0
	var mu sync.Mutex

	const callers = 8
	var wg sync.WaitGroup
	results := make([]*ppr.PushResult, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, _, err := c.GetOrComputeResult(ctx, k, func(context.Context) (*ppr.PushResult, error) {
				mu.Lock()
				fills++
				if fills == 1 {
					close(started)
				}
				mu.Unlock()
				<-release
				return &ppr.PushResult{Estimates: make(ppr.Vector, 2), Residuals: make(ppr.Vector, 2)}, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	<-started
	close(release)
	wg.Wait()
	if fills != 1 {
		t.Fatalf("fills = %d, want 1 (singleflight)", fills)
	}
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatal("collapsed callers received distinct results")
		}
	}
}

// TestResultCallerJoinsVectorFlightThenUpgrades pins the mixed-level
// flight interaction: a result-level caller arriving while a
// vector-only fill is in flight waits it out, then leads an upgrade
// fill instead of returning a residual-less result.
func TestResultCallerJoinsVectorFlightThenUpgrades(t *testing.T) {
	c := New(Config{})
	ctx := context.Background()
	k := testKey(6, 3)
	started := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := c.GetOrCompute(ctx, k, func(context.Context) (ppr.Vector, error) {
			close(started)
			<-release
			return make(ppr.Vector, 4), nil
		})
		if err != nil {
			t.Error(err)
		}
	}()
	<-started

	wg.Add(1)
	var res *ppr.PushResult
	go func() {
		defer wg.Done()
		var err error
		res, _, err = c.GetOrComputeResult(ctx, k, constResult(4, 1))
		if err != nil {
			t.Error(err)
		}
	}()
	close(release)
	wg.Wait()
	if res == nil || res.Residuals == nil {
		t.Fatalf("result-level caller got %+v, want a full result", res)
	}
	if s := c.Stats(); s.Upgrades != 1 {
		t.Fatalf("upgrades = %d, want 1", s.Upgrades)
	}
}

// TestWarmGetOrComputeResultZeroAlloc pins the warm result path at zero
// allocations, matching the vector-level guarantee.
func TestWarmGetOrComputeResultZeroAlloc(t *testing.T) {
	c := New(Config{})
	ctx := context.Background()
	k := testKey(7, 11)
	if _, _, err := c.GetOrComputeResult(ctx, k, constResult(16, 1)); err != nil {
		t.Fatal(err)
	}
	fill := constResult(16, 2)
	allocs := testing.AllocsPerRun(100, func() {
		if _, hit, err := c.GetOrComputeResult(ctx, k, fill); err != nil || !hit {
			t.Fatalf("hit=%v err=%v", hit, err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm GetOrComputeResult allocates %.1f objects per call, want 0", allocs)
	}
}

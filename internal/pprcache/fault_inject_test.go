package pprcache

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/why-not-xai/emigre/internal/fault"
	"github.com/why-not-xai/emigre/internal/ppr"
)

// armFill arms the pprcache.fill failpoint with the given schedule and
// disarms it when the test ends.
func armFill(t *testing.T, spec string) {
	t.Helper()
	if err := fault.Apply("pprcache.fill=" + spec); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.DisarmAll)
}

// TestInjectedFillErrorThenRetry: the pprcache.fill failpoint fails a
// fill before its compute runs; the error carries the injection and
// leaves no residue, and the next caller — the one-shot rule having
// disarmed itself — computes fresh and populates the cache.
func TestInjectedFillErrorThenRetry(t *testing.T) {
	armFill(t, "error(disk on fire)*1")
	c := New(Config{})
	k := testKey(1, 0)

	var computes atomic.Int64
	_, _, err := c.GetOrCompute(context.Background(), k,
		func(context.Context) (ppr.Vector, error) {
			computes.Add(1)
			return ppr.Vector{1}, nil
		})
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want the injected error", err)
	}
	if !strings.Contains(err.Error(), "disk on fire") {
		t.Fatalf("err = %v, want the injected message", err)
	}
	if n := computes.Load(); n != 0 {
		t.Fatalf("%d computes ran, want 0 (injection precedes compute)", n)
	}
	if s := c.Stats(); s.Entries != 0 {
		t.Fatalf("entries = %d after failed fill, want 0", s.Entries)
	}

	// The failed flight must be gone: a retrying caller leads a fresh
	// fill and succeeds.
	v, hit, err := c.GetOrCompute(context.Background(), k,
		func(context.Context) (ppr.Vector, error) { return ppr.Vector{4, 2}, nil })
	if err != nil || hit {
		t.Fatalf("retry after failed fill: v=%v hit=%v err=%v, want fresh compute", v, hit, err)
	}
	if len(v) != 2 {
		t.Fatalf("retry vector = %v", v)
	}
	if _, hit, _ := c.GetOrCompute(context.Background(), k,
		func(context.Context) (ppr.Vector, error) { t.Fatal("must not recompute"); return nil, nil }); !hit {
		t.Fatal("successful retry was not cached")
	}
}

// TestFailedFillDoesNotPoisonCollapsedWaiters: every waiter collapsed
// onto a flight whose fill fails must see the error — and the flight
// must vanish, so a retrying caller recomputes instead of inheriting
// the failure. Run under -race.
func TestFailedFillDoesNotPoisonCollapsedWaiters(t *testing.T) {
	c := New(Config{})
	k := testKey(1, 0)
	fillErr := errors.New("solver exploded")

	const waiters = 8
	release := make(chan struct{})
	var computes atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, waiters)
	wg.Add(waiters)
	for i := 0; i < waiters; i++ {
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = c.GetOrCompute(context.Background(), k,
				func(context.Context) (ppr.Vector, error) {
					computes.Add(1)
					<-release // hold the flight open until all waiters collapse
					return nil, fillErr
				})
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.collapsed.Load() != waiters-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d goroutines collapsed onto the flight", c.collapsed.Load(), waiters-1)
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	wg.Wait()

	for i, err := range errs {
		if !errors.Is(err, fillErr) {
			t.Fatalf("waiter %d: err = %v, want the fill error", i, err)
		}
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("%d computes ran, want 1", n)
	}
	if s := c.Stats(); s.Entries != 0 {
		t.Fatalf("entries = %d after failed fill, want 0", s.Entries)
	}
	v, hit, err := c.GetOrCompute(context.Background(), k,
		func(context.Context) (ppr.Vector, error) { return ppr.Vector{4, 2}, nil })
	if err != nil || hit || len(v) != 2 {
		t.Fatalf("retry after failed fill: v=%v hit=%v err=%v, want fresh compute", v, hit, err)
	}
}

// TestPanickingFillBecomesError: a compute that panics must not kill
// the process (the fill goroutine is outside any HTTP middleware
// recovery) — it surfaces as an error to every waiter, poisoning
// nothing.
func TestPanickingFillBecomesError(t *testing.T) {
	c := New(Config{})
	k := testKey(2, 0)
	_, _, err := c.GetOrCompute(context.Background(), k,
		func(context.Context) (ppr.Vector, error) { panic("solver bug") })
	if err == nil || !strings.Contains(err.Error(), "fill panicked") {
		t.Fatalf("err = %v, want a fill-panicked error", err)
	}
	// Not cached, next caller recomputes cleanly.
	v, hit, err := c.GetOrCompute(context.Background(), k,
		func(context.Context) (ppr.Vector, error) { return ppr.Vector{7}, nil })
	if err != nil || hit || len(v) != 1 {
		t.Fatalf("recovery compute: v=%v hit=%v err=%v", v, hit, err)
	}
}

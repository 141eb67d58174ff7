package pprcache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/why-not-xai/emigre/internal/ppr"
)

// TestSingleflightCollapsesColdKey is the dedup stress test: N
// goroutines racing on one cold key must trigger exactly one compute,
// and every goroutine must observe the same result. Run under -race.
func TestSingleflightCollapsesColdKey(t *testing.T) {
	const goroutines = 64
	c := New(Config{})
	k := testKey(1, 0)

	var computes atomic.Int64
	release := make(chan struct{})
	var done sync.WaitGroup
	done.Add(goroutines)
	results := make([]ppr.Vector, goroutines)
	errs := make([]error, goroutines)

	for i := 0; i < goroutines; i++ {
		go func(i int) {
			defer done.Done()
			results[i], _, errs[i] = c.GetOrCompute(context.Background(), k,
				func(context.Context) (ppr.Vector, error) {
					computes.Add(1)
					<-release // hold the flight open until all callers pile up
					return ppr.Vector{1, 2, 3}, nil
				})
		}(i)
	}
	// The flight stays open until release is closed, so every non-leader
	// must end up collapsed onto it. Wait until they all have.
	deadline := time.Now().Add(5 * time.Second)
	for c.collapsed.Load() != goroutines-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d goroutines collapsed onto the flight", c.collapsed.Load(), goroutines-1)
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	done.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("%d computations ran for one cold key, want exactly 1", n)
	}
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if len(results[i]) != 3 {
			t.Fatalf("goroutine %d got a wrong vector: %v", i, results[i])
		}
	}
	s := c.Stats()
	if s.Misses != 1 {
		t.Fatalf("misses = %d, want 1", s.Misses)
	}
	if s.Collapsed != goroutines-1 {
		t.Fatalf("collapsed = %d, want %d", s.Collapsed, goroutines-1)
	}
	if s.Entries != 1 {
		t.Fatalf("entries = %d, want 1", s.Entries)
	}
}

// TestCanceledWaiterGetsCauseComputationSurvives pins the cancellation
// contract: a waiter whose context ends mid-flight returns the context
// cause immediately, while the computation — still wanted by another
// caller — finishes and populates the cache.
func TestCanceledWaiterGetsCauseComputationSurvives(t *testing.T) {
	c := New(Config{})
	k := testKey(1, 0)

	computing := make(chan struct{})
	release := make(chan struct{})
	var leaderVec ppr.Vector
	var leaderErr error
	var leaderDone sync.WaitGroup
	leaderDone.Add(1)
	go func() {
		defer leaderDone.Done()
		leaderVec, _, leaderErr = c.GetOrCompute(context.Background(), k,
			func(ctx context.Context) (ppr.Vector, error) {
				close(computing)
				select {
				case <-release:
					return ppr.Vector{42}, nil
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			})
	}()
	<-computing

	cause := errors.New("client walked away")
	ctx, cancel := context.WithCancelCause(context.Background())
	waiterErr := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrCompute(ctx, k, func(context.Context) (ppr.Vector, error) {
			t.Error("a second compute ran while the flight was open")
			return nil, nil
		})
		waiterErr <- err
	}()
	// Give the waiter time to join the flight, then cancel it.
	time.Sleep(10 * time.Millisecond)
	cancel(cause)
	select {
	case err := <-waiterErr:
		if !errors.Is(err, cause) {
			t.Fatalf("canceled waiter returned %v, want the context cause %v", err, cause)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled waiter did not unblock")
	}

	// The leader is still interested: the computation must complete and
	// populate the cache.
	close(release)
	leaderDone.Wait()
	if leaderErr != nil {
		t.Fatalf("surviving leader failed: %v", leaderErr)
	}
	if len(leaderVec) != 1 || leaderVec[0] != 42 {
		t.Fatalf("leader vector = %v, want [42]", leaderVec)
	}
	if vec, ok := c.Get(context.Background(), k); !ok || vec[0] != 42 {
		t.Fatalf("surviving computation did not populate the cache (ok=%v vec=%v)", ok, vec)
	}
}

// TestLastWaiterCancelsCompute checks the abandonment path: when every
// caller has gone away the compute context is canceled so the engine
// stops burning CPU on a result nobody will read.
func TestLastWaiterCancelsCompute(t *testing.T) {
	c := New(Config{})
	k := testKey(1, 0)

	computeCanceled := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrCompute(ctx, k, func(fctx context.Context) (ppr.Vector, error) {
			<-fctx.Done()
			close(computeCanceled)
			return nil, fctx.Err()
		})
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()

	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("sole waiter returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("sole canceled waiter did not unblock")
	}
	select {
	case <-computeCanceled:
	case <-time.After(2 * time.Second):
		t.Fatal("compute context was not canceled after the last waiter left")
	}
	// The failed flight must not leave residue: a fresh call recomputes.
	computed := false
	if _, _, err := c.GetOrCompute(context.Background(), k, func(context.Context) (ppr.Vector, error) {
		computed = true
		return ppr.Vector{1}, nil
	}); err != nil || !computed {
		t.Fatalf("post-abandonment lookup: computed=%v err=%v", computed, err)
	}
}

// TestAbandonedFlightDoesNotPoisonLateJoiner pins the retry contract:
// an abandoned flight stays registered until its compute call winds
// down, and a live caller joining in that window must not inherit the
// departed waiters' context.Canceled — it retries and computes fresh.
// Requests abandoned at their deadline leave such flights behind, so
// without the retry a canceled explanation could poison the next one's
// checks on a shared key.
func TestAbandonedFlightDoesNotPoisonLateJoiner(t *testing.T) {
	c := New(Config{})
	k := testKey(1, 0)

	// Leader with a cancelable ctx; its compute blocks after observing
	// the abandonment cancel, holding the dead flight registered.
	abandoned := make(chan struct{})
	release := make(chan struct{})
	ctx1, cancel1 := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrCompute(ctx1, k, func(fctx context.Context) (ppr.Vector, error) {
			<-fctx.Done()
			close(abandoned)
			<-release // keep the canceled flight registered
			return nil, fctx.Err()
		})
		leaderErr <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel1()
	<-abandoned
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoning leader returned %v, want context.Canceled", err)
	}

	// A live caller joins the still-registered dead flight. It must end
	// up with a real vector, not the abandonment's cancellation.
	base := c.Stats().Collapsed
	joinerVec := make(chan ppr.Vector, 1)
	joinerErr := make(chan error, 1)
	go func() {
		vec, _, err := c.GetOrCompute(context.Background(), k,
			func(context.Context) (ppr.Vector, error) {
				return ppr.Vector{7}, nil
			})
		joinerVec <- vec
		joinerErr <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Collapsed == base { // joiner is on the dead flight
		if time.Now().After(deadline) {
			t.Fatal("joiner never collapsed onto the abandoned flight")
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(release) // dead flight resolves with context.Canceled

	select {
	case err := <-joinerErr:
		if err != nil {
			t.Fatalf("live joiner inherited the abandoned flight's error: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("joiner did not unblock")
	}
	if vec := <-joinerVec; len(vec) != 1 || vec[0] != 7 {
		t.Fatalf("joiner vector = %v, want [7]", vec)
	}
	if vec, ok := c.Get(context.Background(), k); !ok || vec[0] != 7 {
		t.Fatalf("retry did not populate the cache (ok=%v vec=%v)", ok, vec)
	}
}

// TestConcurrentMixedWorkload hammers the cache with hits, misses and
// collapses across many keys; correctness here is "no race detected and
// every caller sees a well-formed vector".
func TestConcurrentMixedWorkload(t *testing.T) {
	c := New(Config{MaxEntries: 32, MaxBytes: 1 << 20, Shards: 4})
	const goroutines = 32
	const iters = 200
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				node := (g + i) % 48 // overlap keys across goroutines
				k := testKey(1, node)
				vec, _, err := c.GetOrCompute(context.Background(), k,
					func(context.Context) (ppr.Vector, error) {
						return ppr.Vector{float64(node)}, nil
					})
				if err != nil {
					t.Errorf("goroutine %d iter %d: %v", g, i, err)
					return
				}
				if len(vec) != 1 || vec[0] != float64(node) {
					t.Errorf("goroutine %d iter %d: wrong vector %v for node %d", g, i, vec, node)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if s.Entries > 32 {
		t.Fatalf("entry bound violated: %d resident", s.Entries)
	}
	if s.Hits+s.Misses+s.Collapsed != goroutines*iters {
		t.Fatalf("counter total %d != %d lookups", s.Hits+s.Misses+s.Collapsed, goroutines*iters)
	}
}

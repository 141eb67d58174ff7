package admit

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/why-not-xai/emigre/internal/obs"
)

func TestAdmissionImmediateGrant(t *testing.T) {
	a := New(2, 0)
	if err := a.Acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if err := a.Acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	// Full and no queue: reject.
	if err := a.Acquire(context.Background(), 1); !errors.Is(err, ErrSaturated) {
		t.Fatalf("err = %v, want ErrSaturated", err)
	}
	a.ReleaseObserved(1, 0)
	if err := a.Acquire(context.Background(), 1); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

func TestAdmissionClampsWideRequests(t *testing.T) {
	a := New(2, 0)
	// A request wider than capacity is clamped, not deadlocked.
	if err := a.Acquire(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	if err := a.Acquire(context.Background(), 1); !errors.Is(err, ErrSaturated) {
		t.Fatalf("err = %v, want ErrSaturated while clamped request holds all units", err)
	}
	a.ReleaseObserved(100, 0) // same clamp on release keeps the books balanced
	if err := a.Acquire(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
}

func TestAdmissionQueueBound(t *testing.T) {
	a := New(1, 1)
	if err := a.Acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	// One waiter fits in the queue...
	done := make(chan error, 1)
	go func() { done <- a.Acquire(context.Background(), 1) }()
	waitForWaiters(t, a, 1)
	// ...the next is shed immediately.
	if err := a.Acquire(context.Background(), 1); !errors.Is(err, ErrSaturated) {
		t.Fatalf("err = %v, want ErrSaturated with full queue", err)
	}
	a.ReleaseObserved(1, 0)
	if err := <-done; err != nil {
		t.Fatalf("queued acquire: %v", err)
	}
	a.ReleaseObserved(1, 0)
}

func TestAdmissionWaiterHonorsContext(t *testing.T) {
	a := New(1, 4)
	if err := a.Acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := a.Acquire(ctx, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	// The abandoned waiter must not leak queue slots or units.
	a.ReleaseObserved(1, 0)
	if err := a.Acquire(context.Background(), 1); err != nil {
		t.Fatalf("after waiter timeout: %v", err)
	}
	a.ReleaseObserved(1, 0)
}

// TestAdmissionFIFONoOvertaking: a wide request queued first is granted
// before a narrow one queued later, even though the narrow one would fit
// sooner — otherwise group queries could starve forever.
func TestAdmissionFIFONoOvertaking(t *testing.T) {
	a := New(2, 4)
	if err := a.Acquire(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	order := make(chan string, 2)
	go func() {
		if a.Acquire(context.Background(), 2) == nil {
			order <- "wide"
			a.ReleaseObserved(2, 0)
		}
	}()
	waitForWaiters(t, a, 1)
	go func() {
		if a.Acquire(context.Background(), 1) == nil {
			order <- "narrow"
			a.ReleaseObserved(1, 0)
		}
	}()
	waitForWaiters(t, a, 2)
	a.ReleaseObserved(2, 0)
	if first := <-order; first != "wide" {
		t.Fatalf("first grant = %q, want wide (FIFO)", first)
	}
	<-order
}

// TestAdmissionStress hammers the gate from many goroutines; run with
// -race. The invariant: used never exceeds capacity.
func TestAdmissionStress(t *testing.T) {
	a := New(3, 64)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		n := int64(1 + i%3)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				err := a.Acquire(context.Background(), n)
				if errors.Is(err, ErrSaturated) {
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				a.mu.Lock()
				over := a.used > a.capacity
				a.mu.Unlock()
				if over {
					t.Error("used exceeds capacity")
				}
				a.ReleaseObserved(n, 0)
			}
		}()
	}
	wg.Wait()
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.used != 0 || len(a.waiters) != 0 {
		t.Fatalf("leaked state: used=%d waiters=%d", a.used, len(a.waiters))
	}
}

func waitForWaiters(t *testing.T, a *Controller, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		a.mu.Lock()
		got := len(a.waiters)
		a.mu.Unlock()
		if got >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("never saw %d waiters", n)
}

// TestAdmissionClampContract documents the clamp contract end to end
// and pins its observability counter: a weight outside [1, capacity]
// is clamped on both Acquire and ReleaseObserved (so callers may pass
// the raw weight to both), but only Acquire counts the clamp —
// ReleaseObserved re-clamping the same raw weight must not double-count
// the event.
func TestAdmissionClampContract(t *testing.T) {
	a := New(4, 0)
	reg := obs.NewRegistry()
	a.Clamped = reg.Counter("emigre_admit_test_clamped_weights_total", "t")
	a.Rejections = reg.Counter("emigre_admit_test_rejections_total", "t")

	// Over-capacity weight: admitted, occupying exactly capacity units.
	if err := a.Acquire(context.Background(), 9); err != nil {
		t.Fatal(err)
	}
	if got := a.Used(); got != 4 {
		t.Fatalf("Used = %d, want capacity 4 (clamped)", got)
	}
	if got := a.Clamped.Value(); got != 1 {
		t.Fatalf("clamped counter = %d, want 1", got)
	}

	// The gate is full: the next request is shed and counted.
	if err := a.Acquire(context.Background(), 1); !errors.Is(err, ErrSaturated) {
		t.Fatalf("err = %v, want ErrSaturated", err)
	}
	if got := a.Rejections.Value(); got != 1 {
		t.Fatalf("rejections counter = %d, want 1", got)
	}

	// Releasing the same raw weight balances the books without a second
	// clamp event.
	a.ReleaseObserved(9, 0)
	if got := a.Used(); got != 0 {
		t.Fatalf("Used after release = %d, want 0", got)
	}
	if got := a.Clamped.Value(); got != 1 {
		t.Fatalf("clamped counter after release = %d, want 1 (no double count)", got)
	}

	// Sub-minimum weights are clamped up to 1 silently: that clamp is
	// the "every request is satisfiable" floor, not a saturation
	// signal, so the counter must not move.
	if err := a.Acquire(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if got, want := a.Used(), int64(1); got != want {
		t.Fatalf("Used = %d, want %d", got, want)
	}
	if got := a.Clamped.Value(); got != 1 {
		t.Fatalf("clamped counter after sub-minimum acquire = %d, want 1", got)
	}
	a.ReleaseObserved(0, 0)

	// A controller without counters (nil obs metrics) keeps working.
	bare := New(1, 0)
	if err := bare.Acquire(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	bare.ReleaseObserved(5, 0)
}

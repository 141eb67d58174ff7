package pprcache

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/why-not-xai/emigre/internal/fault"
	"github.com/why-not-xai/emigre/internal/ppr"
)

// nodeVecs is a batch compute that answers key i with the one-entry
// vector {node of keys[i]} and records which indices it was asked for.
func nodeVecs(keys []Key, calls *[][]int) func(context.Context, []int) ([]ppr.Vector, error) {
	return func(_ context.Context, missing []int) ([]ppr.Vector, error) {
		*calls = append(*calls, slices.Clone(missing))
		out := make([]ppr.Vector, len(missing))
		for j, i := range missing {
			out[j] = ppr.Vector{float64(keys[i].Node)}
		}
		return out, nil
	}
}

// waitFor polls cond until it holds; on a timeout it fails the test
// (without stopping the calling goroutine) and returns.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Errorf("timed out waiting for %s", what)
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestGetOrComputeManyHitsMissesAndDuplicates: resident keys answer,
// the rest are filled by one compute call over exactly the distinct
// missing indices, duplicates share their first occurrence, and every
// counter tallies once per distinct key.
func TestGetOrComputeManyHitsMissesAndDuplicates(t *testing.T) {
	c := New(Config{})
	rs := &RequestStats{}
	ctx := WithRequestStats(context.Background(), rs)
	if _, _, err := c.GetOrCompute(ctx, testKey(1, 7), constVec(1, 7)); err != nil {
		t.Fatal(err)
	}
	keys := []Key{testKey(1, 5), testKey(1, 7), testKey(1, 9), testKey(1, 5), testKey(1, 9)}
	var calls [][]int
	got, err := c.GetOrComputeMany(ctx, keys, nodeVecs(keys, &calls))
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 1 || !slices.Equal(calls[0], []int{0, 2}) {
		t.Fatalf("compute calls = %v, want one call for indices [0 2]", calls)
	}
	for i, k := range keys {
		if len(got[i]) != 1 || got[i][0] != float64(k.Node) {
			t.Fatalf("slot %d (node %d) = %v", i, k.Node, got[i])
		}
	}
	if &got[0][0] != &got[3][0] {
		t.Fatal("duplicate keys must share one vector")
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 3 || s.Entries != 3 || s.Inflight != 0 {
		t.Fatalf("stats = %+v, want 1 hit, 3 misses (the warm-up and two batch keys), 3 entries", s)
	}
	if rs.Hits() != 1 || rs.Misses() != 3 {
		t.Fatalf("request stats = %d hits, %d misses, want 1 and 3", rs.Hits(), rs.Misses())
	}
	// Everything is resident now: no compute, and single-key lookups see
	// the batch's entries.
	calls = nil
	if _, err := c.GetOrComputeMany(ctx, keys, nodeVecs(keys, &calls)); err != nil || len(calls) != 0 {
		t.Fatalf("warm batch: err=%v compute calls=%v", err, calls)
	}
	if v, ok := c.Get(ctx, keys[2]); !ok || v[0] != 9 {
		t.Fatalf("Get after batch = %v, %v", v, ok)
	}
	if got, err := c.GetOrComputeMany(ctx, nil, nodeVecs(nil, &calls)); err != nil || len(got) != 0 {
		t.Fatalf("empty batch = %v, %v", got, err)
	}
}

// TestGetOrComputeManyPollsOncePerCall pins hit/miss poll parity: a
// batch polls its context once, resident or not, so deterministic
// poll-counting callers see the same cancellation points cold and warm.
func TestGetOrComputeManyPollsOncePerCall(t *testing.T) {
	c := New(Config{})
	keys := []Key{testKey(1, 1), testKey(1, 2), testKey(1, 3)}
	var calls [][]int
	for _, state := range []string{"cold", "warm"} {
		ctx := &errCountingCtx{Context: context.Background()}
		if _, err := c.GetOrComputeMany(ctx, keys, nodeVecs(keys, &calls)); err != nil {
			t.Fatal(err)
		}
		if ctx.calls != 1 {
			t.Fatalf("%s batch polled ctx.Err %d times, want 1", state, ctx.calls)
		}
	}
}

type errCountingCtx struct {
	context.Context
	calls int
}

func (c *errCountingCtx) Err() error { c.calls++; return nil }

// TestGetOrComputeManyFailureReleasesEveryFlight: a fill that fails —
// by its compute's error (an engine failpoint mid-batch looks the same
// from here) or by the pprcache.fill failpoint — inserts nothing, hands the error to the
// leader and to a waiter joined on just one of its keys, and leaves no
// flight behind: the next caller computes fresh. Run under -race.
func TestGetOrComputeManyFailureReleasesEveryFlight(t *testing.T) {
	t.Cleanup(fault.DisarmAll)
	boom := errors.New("column 2 exploded")
	keys := []Key{testKey(1, 1), testKey(1, 2), testKey(1, 3)}
	for name, arm := range map[string]string{"compute error": "", "fill failpoint": "pprcache.fill=error(injected)*1"} {
		t.Run(name, func(t *testing.T) {
			if arm != "" {
				if err := fault.Apply(arm); err != nil {
					t.Fatal(err)
				}
			}
			c := New(Config{})
			release := make(chan struct{})
			var joinErr error
			var joined sync.WaitGroup
			joined.Add(1)
			go func() {
				defer joined.Done()
				waitFor(t, "the batch's flights", func() bool { return c.Stats().Misses == 3 })
				_, _, joinErr = c.GetOrCompute(context.Background(), keys[1], constVec(1, 2))
			}()
			go func() {
				waitFor(t, "the joiner", func() bool { return c.collapsed.Load() == 1 || arm != "" })
				close(release)
			}()
			_, err := c.GetOrComputeMany(context.Background(), keys, func(context.Context, []int) ([]ppr.Vector, error) {
				<-release
				return nil, boom
			})
			joined.Wait()
			if arm == "" && (!errors.Is(err, boom) || !errors.Is(joinErr, boom)) {
				t.Fatalf("leader err = %v, joiner err = %v, want both %v", err, joinErr, boom)
			}
			if arm != "" && !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("leader err = %v, want the injected error", err)
			}
			waitFor(t, "the fill to wind down", func() bool { return c.Stats().Inflight == 0 })
			for i := range c.shards {
				if n := len(c.shards[i].flights); n != 0 {
					t.Fatalf("shard %d still holds %d flights", i, n)
				}
			}
			if arm == "" && c.Len() != 0 {
				t.Fatalf("%d entries resident after a failed batch", c.Len())
			}
			var calls [][]int
			if _, err := c.GetOrComputeMany(context.Background(), keys, nodeVecs(keys, &calls)); err != nil {
				t.Fatalf("retry after failed batch: %v", err)
			}
		})
	}
}

// TestGetOrComputeManyCancellation: a canceled leader returns its
// cause at once; with nobody else interested the shared computation is
// canceled too and inserts nothing, while a waiter still attached to
// one of the keys keeps it alive and receives the result.
func TestGetOrComputeManyCancellation(t *testing.T) {
	keys := []Key{testKey(1, 1), testKey(1, 2)}
	for _, withJoiner := range []bool{false, true} {
		c := New(Config{})
		ctx, cancel := context.WithCancel(context.Background())
		computeCanceled := make(chan bool, 1)
		release := make(chan struct{})
		compute := func(fctx context.Context, missing []int) ([]ppr.Vector, error) {
			select {
			case <-fctx.Done():
				computeCanceled <- true
				return nil, fctx.Err()
			case <-release:
				computeCanceled <- false
				return []ppr.Vector{{1}, {2}}, nil
			}
		}
		var joinVec ppr.Vector
		var joinErr error
		var joined sync.WaitGroup
		if withJoiner {
			joined.Add(1)
			go func() {
				defer joined.Done()
				waitFor(t, "the batch's flights", func() bool { return c.Stats().Misses == 2 })
				joinVec, _, joinErr = c.GetOrCompute(context.Background(), keys[1], constVec(1, 99))
			}()
		}
		go func() {
			waitFor(t, "flights (and joiner)", func() bool {
				return c.Stats().Misses == 2 && (!withJoiner || c.collapsed.Load() == 1)
			})
			cancel()
			if withJoiner {
				waitFor(t, "the leader to leave both flights", func() bool {
					return waitersOf(c, keys[0]) == 0 && waitersOf(c, keys[1]) == 1
				})
				close(release)
			}
		}()
		if _, err := c.GetOrComputeMany(ctx, keys, compute); !errors.Is(err, context.Canceled) {
			t.Fatalf("joiner=%v: leader err = %v, want context.Canceled", withJoiner, err)
		}
		joined.Wait()
		if got := <-computeCanceled; got == withJoiner {
			t.Fatalf("joiner=%v: compute canceled = %v", withJoiner, got)
		}
		waitFor(t, "the fill to wind down", func() bool { return c.Stats().Inflight == 0 })
		if withJoiner {
			if joinErr != nil || joinVec[0] != 2 || c.Len() != 2 {
				t.Fatalf("joiner got %v, %v with %d entries; want the batch's vector and both keys resident", joinVec, joinErr, c.Len())
			}
		} else if c.Len() != 0 {
			t.Fatalf("%d entries resident after an abandoned batch", c.Len())
		}
	}
}

// waitersOf reads the waiter count of k's flight, -1 when none is
// registered.
func waitersOf(c *Cache, k Key) int {
	sh := c.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if f, ok := sh.flights[k]; ok {
		return f.waiters
	}
	return -1
}

// TestGetOrComputeManyOverlappingBatchesRace: batches racing on
// overlapping key sets, in opposite orders, compute every key exactly
// once and all agree. Run under -race.
func TestGetOrComputeManyOverlappingBatchesRace(t *testing.T) {
	c := New(Config{})
	var computed [8]atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			keys := make([]Key, 5)
			for i := range keys {
				node := (g + i) % 8
				if g%2 == 1 {
					node = (g + 4 - i) % 8
				}
				keys[i] = testKey(1, node)
			}
			got, err := c.GetOrComputeMany(context.Background(), keys, func(_ context.Context, missing []int) ([]ppr.Vector, error) {
				out := make([]ppr.Vector, len(missing))
				for j, i := range missing {
					computed[keys[i].Node].Add(1)
					out[j] = ppr.Vector{float64(keys[i].Node)}
				}
				return out, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			for i, k := range keys {
				if got[i][0] != float64(k.Node) {
					t.Errorf("goroutine %d slot %d: %v for node %d", g, i, got[i], k.Node)
				}
			}
		}(g)
	}
	wg.Wait()
	for node := range computed {
		if n := computed[node].Load(); n != 1 {
			t.Errorf("node %d computed %d times, want once", node, n)
		}
	}
}

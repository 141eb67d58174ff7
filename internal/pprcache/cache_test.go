package pprcache

import (
	"context"
	"fmt"
	"testing"

	"github.com/why-not-xai/emigre/internal/hin"
	"github.com/why-not-xai/emigre/internal/ppr"
)

func testKey(stamp uint64, node int) Key {
	return Key{
		Version: hin.Version{Stamp: stamp},
		Dir:     Forward,
		Engine:  "test-engine/a=0.15",
		Node:    hin.NodeID(node),
	}
}

func constVec(n int, val float64) func(context.Context) (ppr.Vector, error) {
	return func(context.Context) (ppr.Vector, error) {
		v := make(ppr.Vector, n)
		for i := range v {
			v[i] = val
		}
		return v, nil
	}
}

func TestGetOrComputeHitAndMiss(t *testing.T) {
	c := New(Config{})
	ctx := context.Background()
	k := testKey(1, 7)

	v1, hit, err := c.GetOrCompute(ctx, k, constVec(4, 0.5))
	if err != nil || hit {
		t.Fatalf("first lookup: hit=%v err=%v", hit, err)
	}
	v2, hit, err := c.GetOrCompute(ctx, k, func(context.Context) (ppr.Vector, error) {
		t.Fatal("compute ran on a warm key")
		return nil, nil
	})
	if err != nil || !hit {
		t.Fatalf("second lookup: hit=%v err=%v", hit, err)
	}
	if &v1[0] != &v2[0] {
		t.Fatal("warm hit did not return the shared resident vector")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", s)
	}
}

func TestDistinctKeysDoNotCollide(t *testing.T) {
	c := New(Config{})
	ctx := context.Background()
	base := testKey(1, 7)
	variants := []Key{
		{Version: hin.Version{Stamp: 2}, Dir: base.Dir, Engine: base.Engine, Node: base.Node},
		{Version: hin.Version{Stamp: 1, Digest: 3}, Dir: base.Dir, Engine: base.Engine, Node: base.Node},
		{Version: base.Version, Dir: Reverse, Engine: base.Engine, Node: base.Node},
		{Version: base.Version, Dir: base.Dir, Engine: "other-engine", Node: base.Node},
		{Version: base.Version, Dir: base.Dir, Engine: base.Engine, Node: base.Node + 1},
	}
	if _, _, err := c.GetOrCompute(ctx, base, constVec(2, 1)); err != nil {
		t.Fatal(err)
	}
	for i, k := range variants {
		computed := false
		if _, _, err := c.GetOrCompute(ctx, k, func(context.Context) (ppr.Vector, error) {
			computed = true
			return make(ppr.Vector, 2), nil
		}); err != nil {
			t.Fatal(err)
		}
		if !computed {
			t.Errorf("variant %d collided with the base key", i)
		}
	}
}

func TestEntryBoundEvictsLRU(t *testing.T) {
	// Single shard so the LRU order is global and deterministic.
	c := New(Config{MaxEntries: 3, Shards: 1})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, _, err := c.GetOrCompute(ctx, testKey(1, i), constVec(1, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Touch key 0 so key 1 is the least recently used.
	if _, ok := c.Get(ctx, testKey(1, 0)); !ok {
		t.Fatal("key 0 should be resident")
	}
	if _, _, err := c.GetOrCompute(ctx, testKey(1, 3), constVec(1, 3)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(ctx, testKey(1, 1)); ok {
		t.Fatal("LRU key 1 survived the eviction")
	}
	for _, n := range []int{0, 2, 3} {
		if _, ok := c.Get(ctx, testKey(1, n)); !ok {
			t.Fatalf("key %d was evicted out of LRU order", n)
		}
	}
	if s := c.Stats(); s.Evictions != 1 || s.Entries != 3 {
		t.Fatalf("stats = %+v, want 1 eviction / 3 entries", s)
	}
}

func TestByteBoundEvicts(t *testing.T) {
	// Each 100-element vector costs 800 bytes + overhead; a ~2-entry
	// byte budget must keep residency at 2.
	c := New(Config{MaxEntries: 100, MaxBytes: 2 * (100*8 + entryOverhead), Shards: 1})
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, _, err := c.GetOrCompute(ctx, testKey(1, i), constVec(100, 1)); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.Entries != 2 {
		t.Fatalf("entries = %d, want 2 (byte bound)", s.Entries)
	}
	if s.Bytes > 2*(100*8+entryOverhead) {
		t.Fatalf("resident bytes %d exceed the budget", s.Bytes)
	}
	if s.Evictions != 3 {
		t.Fatalf("evictions = %d, want 3", s.Evictions)
	}
}

func TestOversizedEntryIsNotRetained(t *testing.T) {
	c := New(Config{MaxEntries: 10, MaxBytes: 100, Shards: 1})
	ctx := context.Background()
	vec, _, err := c.GetOrCompute(ctx, testKey(1, 0), constVec(1000, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(vec) != 1000 {
		t.Fatal("caller must still receive the computed vector")
	}
	if s := c.Stats(); s.Entries != 0 || s.Bytes != 0 {
		t.Fatalf("oversized vector retained: %+v", s)
	}
}

func TestComputeErrorIsNotCached(t *testing.T) {
	c := New(Config{})
	ctx := context.Background()
	k := testKey(1, 0)
	boom := fmt.Errorf("engine exploded")
	if _, _, err := c.GetOrCompute(ctx, k, func(context.Context) (ppr.Vector, error) {
		return nil, boom
	}); err != boom {
		t.Fatalf("err = %v, want the compute error", err)
	}
	computed := false
	if _, _, err := c.GetOrCompute(ctx, k, func(context.Context) (ppr.Vector, error) {
		computed = true
		return make(ppr.Vector, 1), nil
	}); err != nil {
		t.Fatal(err)
	}
	if !computed {
		t.Fatal("failed computation was negatively cached")
	}
	if s := c.Stats(); s.Misses != 2 {
		t.Fatalf("misses = %d, want 2", s.Misses)
	}
}

func TestPurge(t *testing.T) {
	c := New(Config{})
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if _, _, err := c.GetOrCompute(ctx, testKey(1, i), constVec(8, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 4 {
		t.Fatalf("len = %d, want 4", c.Len())
	}
	c.Purge()
	if s := c.Stats(); s.Entries != 0 || s.Bytes != 0 {
		t.Fatalf("purge left residency: %+v", s)
	}
}

func TestRequestStatsTally(t *testing.T) {
	c := New(Config{})
	rs := &RequestStats{}
	ctx := WithRequestStats(context.Background(), rs)
	k := testKey(1, 0)
	if _, _, err := c.GetOrCompute(ctx, k, constVec(1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.GetOrCompute(ctx, k, constVec(1, 1)); err != nil {
		t.Fatal(err)
	}
	if rs.Hits() != 1 || rs.Misses() != 1 {
		t.Fatalf("request tally = %d hits / %d misses, want 1/1", rs.Hits(), rs.Misses())
	}
	// A second request context over the same cache starts at zero.
	rs2 := &RequestStats{}
	if _, _, err := c.GetOrCompute(WithRequestStats(context.Background(), rs2), k, constVec(1, 1)); err != nil {
		t.Fatal(err)
	}
	if rs2.Hits() != 1 || rs2.Misses() != 0 {
		t.Fatalf("second request tally = %d/%d, want 1/0", rs2.Hits(), rs2.Misses())
	}
}

func TestKeyHelpersRequireVersionedViews(t *testing.T) {
	g := hin.NewGraph()
	user := g.Types().NodeType("user")
	g.AddNode(user, "")
	eng := ppr.NewForwardPush(ppr.DefaultParams())

	if _, ok := ForwardKey(g, eng, 0); !ok {
		t.Fatal("graphs are versioned; ForwardKey must succeed")
	}
	k1, _ := ForwardKey(g, eng, 0)
	k2, _ := ReverseKey(g, ppr.NewReversePush(ppr.DefaultParams()), 0)
	if k1 == k2 {
		t.Fatal("forward and reverse keys must differ")
	}
	unversioned := struct{ hin.View }{g}
	if _, ok := ForwardKey(unversioned, eng, 0); ok {
		t.Fatal("unversioned views must not produce keys")
	}
}

// TestRowPatchedSnapshotNeverSharesBaseKey is the cache-safety
// regression test for the merged CSR type: a row-patched snapshot is a
// shallow copy of its base, so it would inherit the base's version —
// and serve the base graph's vectors for a counterfactual — unless
// WithOutRow drops it. Either no key, or a different one.
func TestRowPatchedSnapshotNeverSharesBaseKey(t *testing.T) {
	g := hin.NewGraph()
	user := g.Types().NodeType("user")
	et := g.Types().EdgeType("e")
	a, b, c := g.AddNode(user, "a"), g.AddNode(user, "b"), g.AddNode(user, "c")
	for _, e := range [][2]hin.NodeID{{a, b}, {b, c}, {c, a}} {
		if err := g.AddEdge(e[0], e[1], et, 1); err != nil {
			t.Fatal(err)
		}
	}
	base := hin.NewCSR(g)
	patched := base.WithOutRow(a, []hin.HalfEdge{{Node: c, Type: et, Weight: 1}}, 1)
	fwd, rev := ppr.NewForwardPush(ppr.DefaultParams()), ppr.NewReversePush(ppr.DefaultParams())
	for node := hin.NodeID(0); int(node) < g.NumNodes(); node++ {
		kb, ok := ForwardKey(base, fwd, node)
		if !ok {
			t.Fatal("the base snapshot of a Graph must be keyable")
		}
		if kp, ok := ForwardKey(patched, fwd, node); ok && kp == kb {
			t.Fatalf("node %d: row-patched snapshot shares the base forward key %+v", node, kb)
		}
		kb, _ = ReverseKey(base, rev, node)
		if kp, ok := ReverseKey(patched, rev, node); ok && kp == kb {
			t.Fatalf("node %d: row-patched snapshot shares the base reverse key %+v", node, kb)
		}
	}
}

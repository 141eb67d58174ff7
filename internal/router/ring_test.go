package router

import (
	"fmt"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("user-%d", i)
	}
	return out
}

// TestRingStabilityOnRemoval pins the property warm shards depend on:
// removing one backend only moves the keys that backend owned — every
// other key keeps its owner, so its pprcache shard stays warm.
func TestRingStabilityOnRemoval(t *testing.T) {
	backends := []string{"http://b1:1", "http://b2:1", "http://b3:1", "http://b4:1"}
	full, err := newRing(backends, 0)
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := newRing(backends[:3], 0) // b4 removed
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, k := range keys(4096) {
		before := full.owner(k)
		after := reduced.owner(k)
		if before == "http://b4:1" {
			continue // orphaned keys must land somewhere new
		}
		if before != after {
			moved++
			t.Errorf("key %s moved %s -> %s though its owner survived", k, before, after)
		}
	}
	if moved > 0 {
		t.Fatalf("%d keys moved off surviving owners", moved)
	}
}

// TestRingBalance: with 128 vnodes the shards stay within a small
// factor of each other — no backend silently takes half the keyspace.
func TestRingBalance(t *testing.T) {
	backends := []string{"http://b1:1", "http://b2:1", "http://b3:1"}
	r, err := newRing(backends, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, k := range keys(30000) {
		counts[r.owner(k)]++
	}
	min, max := 1<<30, 0
	for _, b := range backends {
		c := counts[b]
		if c == 0 {
			t.Fatalf("backend %s owns no keys", b)
		}
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if float64(max) > 2.5*float64(min) {
		t.Fatalf("shard imbalance: min=%d max=%d", min, max)
	}
}

// TestRingSuccessorsDistinctAndOrdered: successors start at the owner,
// never repeat a backend, and cap at the ring size.
func TestRingSuccessorsDistinctAndOrdered(t *testing.T) {
	backends := []string{"http://b1:1", "http://b2:1", "http://b3:1"}
	r, err := newRing(backends, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys(200) {
		s := r.successors(k, 10)
		if len(s) != len(backends) {
			t.Fatalf("successors(%s) = %v, want %d distinct", k, s, len(backends))
		}
		if s[0] != r.owner(k) {
			t.Fatalf("successors(%s)[0] = %s, owner = %s", k, s[0], r.owner(k))
		}
		seen := map[string]bool{}
		for _, b := range s {
			if seen[b] {
				t.Fatalf("successors(%s) repeats %s", k, b)
			}
			seen[b] = true
		}
	}
}

// TestRingSequentialKeysDoNotCluster is the regression test for the
// unmixed-FNV bug: raw FNV-1a barely avalanches trailing bytes, so
// sequentially-numbered keys ("user-0", "user-1", ...) — the shape
// real user ids actually have — landed in long same-owner runs and one
// backend inherited whole blocks of the population. With the mixed
// hash, consecutive keys change owner about as often as independent
// uniform draws would.
func TestRingSequentialKeysDoNotCluster(t *testing.T) {
	backends := []string{"http://b1:1", "http://b2:1", "http://b3:1"}
	r, err := newRing(backends, 0)
	if err != nil {
		t.Fatal(err)
	}
	ks := keys(1000)
	transitions := 0
	counts := map[string]int{}
	for i, k := range ks {
		counts[r.owner(k)]++
		if i > 0 && r.owner(k) != r.owner(ks[i-1]) {
			transitions++
		}
	}
	// Independent draws over 3 backends flip owner with p = 2/3:
	// ~666 transitions over 999 pairs. The unmixed hash produced runs
	// of 10-100 identical owners (a few dozen transitions total), so
	// 450 splits the regimes with huge margin on both sides.
	if transitions < 450 {
		t.Fatalf("sequential keys cluster: only %d owner transitions over %d keys", transitions, len(ks))
	}
	for _, b := range backends {
		if c := counts[b]; c < len(ks)/6 {
			t.Fatalf("backend %s owns only %d of %d sequential keys", b, c, len(ks))
		}
	}
}

// TestRingRejectsBadMembership: empty and duplicate backends are
// construction errors, not silent shard corruption.
func TestRingRejectsBadMembership(t *testing.T) {
	if _, err := newRing(nil, 0); err == nil {
		t.Fatal("empty ring accepted")
	}
	if _, err := newRing([]string{"http://b1:1", "http://b1:1"}, 0); err == nil {
		t.Fatal("duplicate backend accepted")
	}
	if _, err := newRing([]string{""}, 0); err == nil {
		t.Fatal("empty backend accepted")
	}
}

// owner returns the backend owning key: the first ring point clockwise
// from the key's hash.
func (r *ring) owner(key string) string {
	return r.points[r.search(hashKey(key))].backend
}

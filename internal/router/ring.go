// Package router is the partitioned-serving front for emigre: a
// stdlib-only HTTP router that consistent-hashes each request's user
// over a ring of emigre-server backends (so a user's warm PPR push
// state and cached vectors live in exactly one shard), probes backend
// readiness, and asks the owner first, failing over along the ring
// only when a backend is unready, sheds or fails.
package router

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
)

// DefaultVirtualNodes is the per-backend virtual-node count. 128
// points per backend keeps the max/min shard-size ratio within a few
// percent for small rings while the ring stays tiny (N×128 points).
const DefaultVirtualNodes = 128

// ring is an immutable consistent-hash ring: each backend owns
// VirtualNodes points on a 64-bit circle, and a key routes to the
// backend owning the first point clockwise from the key's hash.
// Immutability is the concurrency story — membership changes build a
// new ring and swap the pointer.
type ring struct {
	points   []ringPoint // sorted by hash
	backends []string    // distinct, insertion order
}

type ringPoint struct {
	hash    uint64
	backend string
}

// hashKey is FNV-1a 64 run through a splitmix64 finalizer: fast,
// dependency-free, and stable across processes and restarts — the
// shard map must outlive any one router. The finalizer matters: raw
// FNV-1a barely avalanches its trailing bytes, so near-identical keys
// ("user-1".."user-30", and the ring's own vnode keys "b#0".."b#127")
// land in tight clusters and one backend silently inherits half the
// keyspace. Mixing spreads those clusters over the full circle.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer (Stafford variant 13): a bijective
// avalanche over uint64, so it cannot introduce collisions.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// newRing builds a ring of the given backends with vnodes points each.
// Backend identity is its address string; duplicates are rejected
// (two points for one address would silently halve every other shard).
func newRing(backends []string, vnodes int) (*ring, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("router: ring needs at least one backend")
	}
	if vnodes < 1 {
		vnodes = DefaultVirtualNodes
	}
	seen := make(map[string]bool, len(backends))
	r := &ring{
		points:   make([]ringPoint, 0, len(backends)*vnodes),
		backends: make([]string, 0, len(backends)),
	}
	for _, b := range backends {
		if b == "" {
			return nil, fmt.Errorf("router: empty backend address")
		}
		if seen[b] {
			return nil, fmt.Errorf("router: duplicate backend %q", b)
		}
		seen[b] = true
		r.backends = append(r.backends, b)
		for v := 0; v < vnodes; v++ {
			// The point key embeds the vnode index with a separator that
			// cannot occur in a host:port address, so "host:1" vnode 2 and
			// "host:12" vnode 0 ("host:1#2" vs "host:12#0") never collide.
			r.points = append(r.points, ringPoint{
				hash:    hashKey(b + "#" + strconv.Itoa(v)),
				backend: b,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) break by address so the ring is
		// deterministic regardless of input order.
		return r.points[i].backend < r.points[j].backend
	})
	return r, nil
}

// search returns the index of the first point with hash >= h, wrapping
// to 0 past the last point.
func (r *ring) search(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// successors returns up to n distinct backends in clockwise order
// starting at key's owner, the first ring point clockwise from the
// key's hash; the
// rest are the failover order — the backends that would inherit the
// shard if earlier ones left the ring, so a failed-over request lands
// where the user's state would migrate to anyway.
func (r *ring) successors(key string, n int) []string {
	if n > len(r.backends) {
		n = len(r.backends)
	}
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	start := r.search(hashKey(key))
	for i := 0; len(out) < n && i < len(r.points); i++ {
		b := r.points[(start+i)%len(r.points)].backend
		if !seen[b] {
			seen[b] = true
			out = append(out, b)
		}
	}
	return out
}

// size returns the number of backends on the ring.
func (r *ring) size() int { return len(r.backends) }

package pprcache

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/why-not-xai/emigre/internal/fault"
	"github.com/why-not-xai/emigre/internal/ppr"
)

// fillSite is the failpoint at the head of every cache fill — the
// singleflight leader's compute call. Arming it exercises the error
// propagation of the flight machinery: every attached waiter must see
// the injected error and the next caller must recompute fresh (no
// poisoning).
var fillSite = fault.Register("pprcache.fill")

// Defaults used when the corresponding Config field is zero.
const (
	// DefaultMaxEntries bounds the total number of resident vectors.
	DefaultMaxEntries = 4096
	// DefaultMaxBytes bounds the total resident vector payload
	// (256 MiB).
	DefaultMaxBytes = 256 << 20
	// DefaultShards is the lock-striping factor.
	DefaultShards = 16
)

// entryOverhead approximates the per-entry bookkeeping cost (key,
// list element, map slot) charged on top of the vector payload.
const entryOverhead = 128

// Config bounds a Cache.
type Config struct {
	// MaxEntries bounds the number of resident vectors across all
	// shards. 0 means DefaultMaxEntries.
	MaxEntries int
	// MaxBytes bounds the resident payload across all shards, counting
	// 8 bytes per vector element plus a small per-entry overhead.
	// 0 means DefaultMaxBytes.
	MaxBytes int64
}

// Cache is a sharded, bounded, singleflight-deduplicating PPR-vector
// cache. Create with New; the zero value is not usable.
type Cache struct {
	shards    []shard
	shardMask uint64
	// Per-shard budgets: the global bounds split evenly. A pathological
	// workload hashing every key to one shard would see effective
	// bounds of 1/DefaultShards of the configured totals; with the
	// SplitMix64 key hash this does not happen in practice.
	entryBudget int
	byteBudget  int64

	hits      atomic.Int64
	misses    atomic.Int64
	collapsed atomic.Int64
	evictions atomic.Int64
	inflight  atomic.Int64
	upgrades  atomic.Int64
}

type shard struct {
	mu      sync.Mutex
	entries map[Key]*list.Element
	lru     *list.List // front = most recently used
	bytes   int64
	flights map[Key]*flight
}

// entry is one resident push result. Vector-only producers store a
// result with nil Residuals — byte-for-byte the same charge as the
// plain vector entries of earlier revisions — while full producers
// (GetOrComputeResult) keep the residual pair resident so warm-start
// consumers can resume pushes from it. note is what a consumer derived
// from the vector (SetNote), nil when none; size charges it too.
type entry struct {
	key  Key
	res  *ppr.PushResult
	note Note
	size int64
}

// A Note is a value a consumer derives from an entry's vector and keeps
// beside it (SetNote), so the vector's next reader need not derive it
// again: rec keeps a user's ranked top-n prefix on the user's row. A
// note lives and dies with its entry — evicted or purged with it, and
// dropped when the entry's result is replaced — and its Bytes are
// charged to the entry's byte budget. Notes are shared like vectors and
// MUST be treated as immutable. The cache does not interpret them: a
// consumer that may meet another consumer's note under the same key
// tells them apart itself.
type Note interface {
	// Bytes is the note's resident size.
	Bytes() int64
}

// full reports whether the entry carries the residual half of the push
// state, i.e. can serve warm-start (GetOrComputeResult) consumers.
func (e *entry) full() bool { return e.res.Residuals != nil }

// entrySize charges 8 bytes per resident float plus the bookkeeping
// overhead, plus the note's own size; a vector-only entry without a
// note costs exactly what it did before residuals became storable.
func entrySize(res *ppr.PushResult, note Note) int64 {
	size := int64(len(res.Estimates))*8 + int64(len(res.Residuals))*8 + entryOverhead
	if note != nil {
		size += note.Bytes()
	}
	return size
}

// flight is one in-progress computation that concurrent lookups of the
// same key attach to. waiters is guarded by the owning shard's mutex;
// the computation is canceled when it drops to zero so a result nobody
// wants is not computed to completion. full marks flights led by a
// result-level caller: vector-level callers can join any flight, but a
// result-level caller joining a vector-only flight waits it out and
// then upgrades the resident entry.
type flight struct {
	done    chan struct{}
	cancel  context.CancelFunc
	waiters int
	full    bool
	res     *ppr.PushResult
	err     error
}

// New builds a cache with the given bounds, striped over DefaultShards
// locks.
func New(cfg Config) *Cache { return newCache(cfg, DefaultShards) }

// newCache is New over shards lock stripes, a power of two: the seam
// that lets a test put every key in one shard, under one LRU order.
func newCache(cfg Config, shards int) *Cache {
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = DefaultMaxEntries
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = DefaultMaxBytes
	}
	c := &Cache{
		shards:      make([]shard, shards),
		shardMask:   uint64(shards - 1),
		entryBudget: max(1, cfg.MaxEntries/shards),
		byteBudget:  max(1, cfg.MaxBytes/int64(shards)),
	}
	for i := range c.shards {
		c.shards[i].entries = make(map[Key]*list.Element)
		c.shards[i].lru = list.New()
		c.shards[i].flights = make(map[Key]*flight)
	}
	return c
}

// shardFor picks the shard of a key by hashing every key component.
func (c *Cache) shardFor(k Key) *shard {
	h := uint64(0x9e3779b97f4a7c15)
	h = mix64(h ^ k.Version.Stamp)
	h = mix64(h ^ k.Version.Digest)
	h = mix64(h ^ uint64(k.Dir))
	for i := 0; i < len(k.Engine); i++ {
		h = (h ^ uint64(k.Engine[i])) * 0x100000001b3
	}
	h = mix64(h ^ uint64(uint32(k.Node)))
	return &c.shards[h&c.shardMask]
}

// mix64 is the SplitMix64 finalizer (shared shape with internal/hin's
// version mixing; duplicated to keep the dependency surface one-way).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// resident returns k's result and note when its entry can answer — any
// entry, or with full only one carrying residuals — bumping it in the
// LRU and tallying the hit. It never computes.
func (c *Cache) resident(ctx context.Context, k Key, full bool) (*ppr.PushResult, Note, bool) {
	var (
		res  *ppr.PushResult
		note Note
	)
	sh := c.shardFor(k)
	sh.mu.Lock()
	el, ok := sh.entries[k]
	if ok = ok && (!full || el.Value.(*entry).full()); ok {
		sh.lru.MoveToFront(el)
		e := el.Value.(*entry)
		res, note = e.res, e.note
	}
	sh.mu.Unlock()
	if !ok {
		return nil, nil, false
	}
	c.hits.Add(1)
	countRequest(ctx, true)
	return res, note, true
}

// Get returns the cached vector for k without computing on a miss.
// Vector-only and full entries both answer.
func (c *Cache) Get(ctx context.Context, k Key) (ppr.Vector, bool) {
	res, _, ok := c.resident(ctx, k, false)
	if !ok {
		return nil, false
	}
	return res.Estimates, true
}

// GetOrCompute returns the vector for k, computing it with compute on a
// miss. Concurrent misses on the same key are collapsed: exactly one
// compute call runs and every caller receives its result. The returned
// boolean reports whether the call was answered from a resident entry.
//
// Cancellation semantics: a caller whose ctx ends while waiting returns
// immediately with context.Cause(ctx); the computation keeps running
// for the remaining waiters — and still populates the cache — unless
// every waiter has gone away, in which case the context passed to
// compute is canceled too. An abandoned flight stays registered until
// its compute call winds down; a live caller that joins it in that
// window does not inherit the departed waiters' cancellation — it
// retries with a fresh flight instead (requests abandoned at their
// deadline leave such flights behind, so this window is hit in
// practice).
//
// The returned vector is shared with other callers and must not be
// mutated.
func (c *Cache) GetOrCompute(ctx context.Context, k Key, compute func(context.Context) (ppr.Vector, error)) (ppr.Vector, bool, error) {
	vec, _, hit, err := GetOrComputeNoted(ctx, c, k, compute, func(ctx context.Context, compute func(context.Context) (ppr.Vector, error)) (ppr.Vector, error) {
		return compute(ctx)
	})
	return vec, hit, err
}

// GetOrComputeNoted is GetOrCompute for a consumer that keeps a note on
// k's entry (SetNote): the one lookup also returns that note, nil when
// the entry has none or was not resident. compute receives arg instead
// of capturing it, so the caller can pass a function literal that
// captures nothing: a warm hit then allocates nothing, where a capturing
// closure is heap-allocated even when the lookup never calls it.
func GetOrComputeNoted[A any](ctx context.Context, c *Cache, k Key, arg A, compute func(context.Context, A) (ppr.Vector, error)) (ppr.Vector, Note, bool, error) {
	res, note, hit, err := lookupOne(ctx, c, k, false, arg, compute, nil)
	if err != nil {
		return nil, nil, hit, err
	}
	return res.Estimates, note, hit, nil
}

// SetNote keeps n on k's entry, replacing any note there, while the
// entry still holds vec — the vector n was derived from; otherwise (the
// entry was evicted, or its result replaced) it does nothing. The note's
// bytes are charged to the entry and the shard's budgets enforced as on
// insert, so a note can evict its shard's coldest entries, its own
// included.
func (c *Cache) SetNote(k Key, vec ppr.Vector, n Note) {
	sh := c.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.entries[k]
	if !ok {
		return
	}
	e := el.Value.(*entry)
	if est := e.res.Estimates; len(est) != len(vec) || len(vec) > 0 && &est[0] != &vec[0] {
		return
	}
	sh.bytes -= e.size
	e.note = n
	e.size = entrySize(e.res, n)
	sh.bytes += e.size
	c.evictLocked(sh)
}

// GetOrComputeResult is GetOrCompute at the push-result level: on a
// miss, compute must return the full estimate/residual pair, which is
// kept resident so later callers can warm-start incremental pushes
// from it. A resident vector-only entry (stored by GetOrCompute) is
// upgraded in place — compute runs once, the entry's residuals become
// resident, and Stats.Upgrades tallies the promotion. Vector-level
// callers share full entries and flights transparently.
//
// Cancellation and singleflight semantics match GetOrCompute.
//
// The returned result is shared with other callers and must not be
// mutated — warm starts hand it to ppr.UpdateForEdit, which copies.
func (c *Cache) GetOrComputeResult(ctx context.Context, k Key, compute func(context.Context) (*ppr.PushResult, error)) (*ppr.PushResult, bool, error) {
	res, _, hit, err := lookupOne(ctx, c, k, true, compute, nil, func(ctx context.Context, compute func(context.Context) (*ppr.PushResult, error)) (*ppr.PushResult, error) {
		return compute(ctx)
	})
	return res, hit, err
}

// GetOrComputeMany is GetOrCompute over a batch of keys sharing one
// computation: resident keys answer, keys already in flight are joined,
// and the rest become flights — one per distinct key — filled by a
// single compute call, which receives the indices (into keys) to return
// vectors for, in that order. A failed fill inserts nothing and resolves
// all its flights with the error. Counters tally once per distinct key.
// Semantics otherwise match GetOrCompute, the shared computation being
// canceled once every one of its flights has lost all its waiters. keys
// is retained until then; callers must not mutate it afterwards.
func (c *Cache) GetOrComputeMany(ctx context.Context, keys []Key, compute func(ctx context.Context, missing []int) ([]ppr.Vector, error)) ([]ppr.Vector, error) {
	res, _, err := c.lookup(ctx, keys, false, true, func(fctx context.Context, missing []int) ([]*ppr.PushResult, error) {
		vecs, err := compute(fctx, missing)
		out := make([]*ppr.PushResult, len(vecs))
		for j, vec := range vecs {
			out[j] = &ppr.PushResult{Estimates: vec}
		}
		return out, err
	})
	if err != nil {
		return nil, err
	}
	out := make([]ppr.Vector, len(res))
	for i, r := range res {
		out[i] = r.Estimates
	}
	return out, nil
}

// lookupOne is the one-key case of lookup behind a resident fast path;
// exactly one of vec and result is the caller's compute, which takes
// arg. The fast path precedes the compute wrapper because that closure
// and the batch loop's bookkeeping heap-allocate, and a warm lookup
// must stay at zero allocations (TestWarmGetOrComputeZeroAlloc).
// lookup re-checks residency under the flight lock, so this is purely
// an optimization, not a second code path — including the cancellation
// poll, which warm hits must honor exactly like the shared loop.
func lookupOne[A any](ctx context.Context, c *Cache, k Key, full bool, arg A, vec func(context.Context, A) (ppr.Vector, error), result func(context.Context, A) (*ppr.PushResult, error)) (*ppr.PushResult, Note, bool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, false, context.Cause(ctx)
	}
	if res, note, ok := c.resident(ctx, k, full); ok {
		return res, note, true, nil
	}
	out, hits, err := c.lookup(ctx, []Key{k}, full, false, func(fctx context.Context, _ []int) ([]*ppr.PushResult, error) {
		if result != nil {
			res, err := result(fctx, arg)
			return []*ppr.PushResult{res}, err
		}
		est, err := vec(fctx, arg)
		return []*ppr.PushResult{{Estimates: est}}, err
	})
	if err != nil {
		return nil, nil, false, err
	}
	return out[0], nil, hits == 1, nil
}

// lookup is the shared lookup/flight loop: every key is answered from
// residency (hits counts those), joined onto a flight already computing
// it, or registered as a flight this caller leads, and all led flights
// are filled by one compute call over their indices. full selects the
// result-level contract: only entries and flights carrying residuals
// answer, and leading a fill over a resident vector-only entry counts
// as an upgrade rather than a miss. pollFirst is false when the caller
// already ran the cancellation poll for this attempt (lookupOne): every
// lookup must poll exactly once per attempt — never zero, never twice,
// whatever is resident — so that cold and warm calls present the same
// cancellation points to deterministic poll-counting callers.
func (c *Cache) lookup(ctx context.Context, keys []Key, full, pollFirst bool, compute func(context.Context, []int) ([]*ppr.PushResult, error)) (out []*ppr.PushResult, hits int, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out = make([]*ppr.PushResult, len(keys))
	for poll, retry := pollFirst, true; retry; poll = true {
		if poll && ctx.Err() != nil {
			return nil, 0, context.Cause(ctx)
		}
		flights := make([]*flight, len(keys))
		var led []int
		// The compute context is detached from the leader's request
		// (WithoutCancel keeps its values — tracing, request stats — but
		// not its cancellation) so a canceled leader cannot poison the
		// result for waiters that joined after it. It ends once every led
		// flight is abandoned — not while they are still being
		// registered: this caller waits on each.
		fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
		live := new(atomic.Int32)
		for i, k := range keys {
			if out[i] != nil || slices.Index(keys[:i], k) >= 0 {
				continue // answered, or a duplicate served by its first occurrence
			}
			hit := true
			sh := c.shardFor(k)
			sh.mu.Lock()
			el, resident := sh.entries[k]
			if f, ok := sh.flights[k]; resident && (!full || el.Value.(*entry).full()) {
				sh.lru.MoveToFront(el)
				out[i] = el.Value.(*entry).res
				hits++
				c.hits.Add(1)
			} else if ok {
				// A collapsed wait is charged as a hit at the request level:
				// no computation runs on this request's behalf.
				f.waiters++
				flights[i] = f
				c.collapsed.Add(1)
			} else {
				hit = false
				// Miss, or upgrade of a resident vector-only entry (which
				// keeps serving vector-level callers meanwhile): lead.
				live.Add(1)
				abandon := sync.OnceFunc(func() {
					if live.Add(-1) == 0 {
						cancel()
					}
				})
				flights[i] = &flight{done: make(chan struct{}), cancel: abandon, waiters: 1, full: full}
				sh.flights[k] = flights[i]
				led = append(led, i)
				if resident {
					c.upgrades.Add(1)
				} else {
					c.misses.Add(1)
				}
			}
			sh.mu.Unlock()
			countRequest(ctx, hit)
		}
		if len(led) == 0 {
			cancel()
		} else {
			c.inflight.Add(1)
			go func() {
				res, ferr := runFill(fctx, func(ctx context.Context) ([]*ppr.PushResult, error) { return compute(ctx, led) })
				if ferr == nil && len(res) != len(led) {
					ferr = fmt.Errorf("pprcache: fill returned %d results for %d keys", len(res), len(led))
				}
				// Resolve and unregister every led flight before waking any
				// waiter: a woken caller's next lookup must not join a
				// sibling flight of this batch that is still registered
				// and about to resolve with this fill's error.
				for j, i := range led {
					sh, f := c.shardFor(keys[i]), flights[i]
					sh.mu.Lock()
					if f.err = ferr; ferr == nil {
						f.res = res[j]
						c.insertLocked(sh, keys[i], f.res)
					}
					delete(sh.flights, keys[i])
					sh.mu.Unlock()
				}
				c.inflight.Add(-1)
				for _, i := range led {
					close(flights[i].done)
				}
				cancel()
			}()
		}
		retry = false
		for i, f := range flights {
			if f == nil {
				continue
			}
			if err != nil {
				c.leave(c.shardFor(keys[i]), f)
				continue
			}
			res, werr := c.wait(ctx, c.shardFor(keys[i]), f)
			switch joined := !slices.Contains(led, i); {
			case werr == nil && joined && full && !f.full:
				// Joined a vector-only fill but residuals are needed: the
				// vector entry is resident now, so the next pass takes the
				// upgrade path and leads a full fill.
				retry = true
			case werr == nil:
				out[i] = res
			case joined && errors.Is(werr, context.Canceled) && ctx.Err() == nil:
				// The flight was abandoned (every earlier waiter left and
				// its computation was canceled) before this caller joined.
				// That cancellation belongs to the departed waiters, not
				// to this live request: retry with a fresh flight.
				retry = true
			default:
				err = werr
			}
		}
		if err != nil {
			return nil, 0, err
		}
	}
	for i, k := range keys {
		out[i] = out[slices.Index(keys, k)]
	}
	return out, hits, nil
}

// runFill executes one cache fill with the pprcache.fill failpoint at
// its head and panic containment around the engine call: the fill runs
// in its own goroutine, outside any HTTP middleware recovery, so a
// panicking compute must resolve the flight with an error instead of
// killing the process. Waiters observe the panic as an ordinary fill
// error; nothing is inserted into the cache.
func runFill[T any](ctx context.Context, compute func(context.Context) (T, error)) (res T, err error) {
	defer func() {
		if p := recover(); p != nil {
			var zero T
			res, err = zero, fmt.Errorf("pprcache: fill panicked: %v", p)
		}
	}()
	if err := fillSite.Hit(ctx); err != nil {
		return res, err
	}
	return compute(ctx)
}

// wait blocks until the flight completes or ctx ends.
func (c *Cache) wait(ctx context.Context, sh *shard, f *flight) (*ppr.PushResult, error) {
	select {
	case <-f.done:
		return f.res, f.err
	case <-ctx.Done():
		c.leave(sh, f)
		return nil, context.Cause(ctx)
	}
}

// leave withdraws one waiter from f.
func (c *Cache) leave(sh *shard, f *flight) {
	sh.mu.Lock()
	f.waiters--
	abandoned := f.waiters == 0
	sh.mu.Unlock()
	if abandoned {
		// Nobody is interested in the result any more; stop the
		// computation (PR 1's cancellation plumbing aborts the PPR
		// loops within microseconds).
		f.cancel()
	}
}

// insertLocked adds a computed result and enforces the shard budgets.
// The caller holds sh.mu.
func (c *Cache) insertLocked(sh *shard, k Key, res *ppr.PushResult) {
	if el, ok := sh.entries[k]; ok {
		e := el.Value.(*entry)
		if res.Residuals != nil && !e.full() {
			// Upgrade in place: the full result replaces the vector-only
			// payload (and its byte charge) under the same LRU slot. The
			// note goes with the vector it was derived from.
			sh.bytes -= e.size
			e.res, e.note = res, nil
			e.size = entrySize(res, nil)
			sh.bytes += e.size
		}
		// Otherwise a concurrent writer (distinct flight after an
		// eviction race) already resides; keep the resident entry.
		sh.lru.MoveToFront(el)
	} else {
		e := &entry{key: k, res: res, size: entrySize(res, nil)}
		sh.entries[k] = sh.lru.PushFront(e)
		sh.bytes += e.size
	}
	c.evictLocked(sh)
}

// evictLocked drops least recently used entries until the shard is
// within both budgets. The caller holds sh.mu.
func (c *Cache) evictLocked(sh *shard) {
	for (sh.lru.Len() > c.entryBudget || sh.bytes > c.byteBudget) && sh.lru.Len() > 0 {
		tail := sh.lru.Back()
		victim := tail.Value.(*entry)
		sh.lru.Remove(tail)
		delete(sh.entries, victim.key)
		sh.bytes -= victim.size
		c.evictions.Add(1)
	}
}

// Stats returns a point-in-time snapshot of the counters and residency
// gauges.
func (c *Cache) Stats() Stats {
	s := Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Collapsed: c.collapsed.Load(),
		Evictions: c.evictions.Load(),
		Inflight:  c.inflight.Load(),
		Upgrades:  c.upgrades.Load(),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		s.Entries += sh.lru.Len()
		s.Bytes += sh.bytes
		sh.mu.Unlock()
	}
	return s
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.lru.Len()
		sh.mu.Unlock()
	}
	return n
}

package pprcache

import (
	"strconv"

	"github.com/why-not-xai/emigre/internal/obs"
)

// RegisterMetrics exports the cache's counters and per-shard residency
// gauges on reg. The counters piggyback on the cache's existing atomic
// tallies via callbacks, so registration adds zero cost to the lookup
// hot path; the per-shard gauges read under the shard mutex only when
// /metrics is scraped. Re-registering (a rebuilt server with a fresh
// cache on the same registry) repoints the series at the new cache.
func (c *Cache) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("emigre_pprcache_hits_total",
		"Lookups answered from a resident vector.", c.hits.Load)
	reg.CounterFunc("emigre_pprcache_misses_total",
		"Lookups that led a new computation.", c.misses.Load)
	reg.CounterFunc("emigre_pprcache_collapsed_total",
		"Lookups collapsed onto an in-progress computation.", c.collapsed.Load)
	reg.CounterFunc("emigre_pprcache_evictions_total",
		"Resident vectors evicted by the LRU budgets.", c.evictions.Load)
	reg.GaugeFunc("emigre_pprcache_inflight_computations",
		"Vector computations running right now.", c.inflight.Load)
	reg.CounterFunc("emigre_pprcache_upgrades_total",
		"Vector-only entries promoted to full push results for warm starts.", c.upgrades.Load)
	for i := range c.shards {
		sh := &c.shards[i]
		label := obs.L("shard", strconv.Itoa(i))
		reg.GaugeFunc("emigre_pprcache_resident_bytes",
			"Resident vector payload bytes per shard.", func() int64 {
				sh.mu.Lock()
				defer sh.mu.Unlock()
				return sh.bytes
			}, label)
		reg.GaugeFunc("emigre_pprcache_resident_entries",
			"Resident vectors per shard.", func() int64 {
				sh.mu.Lock()
				defer sh.mu.Unlock()
				return int64(sh.lru.Len())
			}, label)
	}
}

package server

import (
	"bytes"
	"encoding/json"
	"log"
	"net/http"
	"strings"
	"testing"

	emigre "github.com/why-not-xai/emigre"
)

type cacheStatsBody struct {
	Cache *emigre.PPRCacheStats `json:"cache"`
}

func getCacheStats(t *testing.T, h http.Handler) *emigre.PPRCacheStats {
	t.Helper()
	rec := do(t, h, "GET", "/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /stats = %d: %s", rec.Code, rec.Body.String())
	}
	var body cacheStatsBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	return body.Cache
}

// TestRepeatedRecommendHitsCache is the serving acceptance check:
// the second identical /recommend must be answered from the vector
// cache, visible as hits in GET /stats.
func TestRepeatedRecommendHitsCache(t *testing.T) {
	srv, _ := newTestServer(t)
	h := srv.Handler()

	for i := 0; i < 3; i++ {
		if rec := do(t, h, "GET", "/recommend?user=Paul&n=3", nil); rec.Code != http.StatusOK {
			t.Fatalf("request %d: %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	s := getCacheStats(t, h)
	if s == nil {
		t.Fatal("GET /stats has no cache section with caching enabled")
	}
	if s.Misses < 1 {
		t.Fatalf("no miss recorded on the cold request: %+v", s)
	}
	if s.Hits < 2 {
		t.Fatalf("repeated requests were not served from the cache: %+v", s)
	}
	if s.Entries < 1 {
		t.Fatalf("no resident entries after traffic: %+v", s)
	}
}

// TestExplainPopulatesAndReusesCache drives the expensive path twice:
// the second identical /explain reuses the first one's baseline
// vectors and reverse columns.
func TestExplainPopulatesAndReusesCache(t *testing.T) {
	srv, _ := newTestServer(t)
	h := srv.Handler()
	body := map[string]any{"user": "Paul", "wni": "Harry Potter", "mode": "remove", "method": "powerset"}

	if rec := do(t, h, "POST", "/explain", body); rec.Code != http.StatusOK {
		t.Fatalf("first explain: %d: %s", rec.Code, rec.Body.String())
	}
	first := getCacheStats(t, h)
	if rec := do(t, h, "POST", "/explain", body); rec.Code != http.StatusOK {
		t.Fatalf("second explain: %d: %s", rec.Code, rec.Body.String())
	}
	second := getCacheStats(t, h)
	if second.Hits <= first.Hits {
		t.Fatalf("second explanation hit nothing: %+v -> %+v", first, second)
	}
}

// TestCacheDisabledByConfig pins the negative convention: a negative
// bound disables caching, /stats drops the section, and requests still
// serve correctly.
func TestCacheDisabledByConfig(t *testing.T) {
	srv, _ := newTestServerCfg(t, func(c *Config) { c.CacheEntries = -1 })
	h := srv.Handler()
	if rec := do(t, h, "GET", "/recommend?user=Paul&n=3", nil); rec.Code != http.StatusOK {
		t.Fatalf("recommend without cache: %d: %s", rec.Code, rec.Body.String())
	}
	if s := getCacheStats(t, h); s != nil {
		t.Fatalf("cache section present with caching disabled: %+v", s)
	}
}

// TestRequestLogCarriesCacheTally checks the per-request observability:
// the middleware log line reports the request's own hit/miss counts.
func TestRequestLogCarriesCacheTally(t *testing.T) {
	var buf bytes.Buffer
	srv, _ := newTestServerCfg(t, func(c *Config) {
		c.Logger = log.New(&buf, "", 0)
	})
	h := srv.Handler()
	do(t, h, "GET", "/recommend?user=Paul&n=3", nil) // cold: misses
	do(t, h, "GET", "/recommend?user=Paul&n=3", nil) // warm: hits
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("expected 2 log lines, got %d:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], "cache=0h/1m") {
		t.Errorf("cold request log %q does not report its miss", lines[0])
	}
	if !strings.Contains(lines[1], "cache=1h/0m") {
		t.Errorf("warm request log %q does not report its hit", lines[1])
	}
}

// TestCacheSharedBetweenRecommendAndExplain checks the topology: one
// cache spans both endpoints. A /recommend leaves the user's forward
// vector resident; the /explain that follows reads its session base off
// that very vector — a hit, no upgrade, no second slot — and the entry
// then answers the next /recommend as a plain hit.
func TestCacheSharedBetweenRecommendAndExplain(t *testing.T) {
	srv, _ := newTestServer(t)
	h := srv.Handler()
	if rec := do(t, h, "GET", "/recommend?user=Paul&n=3", nil); rec.Code != http.StatusOK {
		t.Fatal(rec.Body.String())
	}
	before := getCacheStats(t, h)
	body := map[string]any{"user": "Paul", "wni": "Harry Potter", "mode": "remove", "method": "powerset"}
	if rec := do(t, h, "POST", "/explain", body); rec.Code != http.StatusOK {
		t.Fatalf("explain: %d: %s", rec.Code, rec.Body.String())
	}
	after := getCacheStats(t, h)
	if after.Hits != before.Hits+1 || after.Upgrades != before.Upgrades {
		t.Fatalf("explain did not hit recommend's vector as is: %+v -> %+v", before, after)
	}
	if rec := do(t, h, "GET", "/recommend?user=Paul&n=3", nil); rec.Code != http.StatusOK {
		t.Fatal(rec.Body.String())
	}
	if final := getCacheStats(t, h); final.Hits != after.Hits+1 || final.Misses != after.Misses {
		t.Fatalf("recommend did not reuse the resident vector: %+v -> %+v", after, final)
	}
}

// TestWarmRecommendIsOneLookup: a warm /recommend reads the user's
// vector and its kept ranking in one cache lookup, so its tally header
// reports exactly one hit, as it did before rankings were kept.
func TestWarmRecommendIsOneLookup(t *testing.T) {
	srv, _ := newTestServer(t)
	h := srv.Handler()
	for i, want := range []string{"0h/1m", "1h/0m", "1h/0m"} {
		rec := do(t, h, "GET", "/recommend?user=Paul&n=3", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: %d: %s", i, rec.Code, rec.Body.String())
		}
		if got := rec.Header().Get(CacheTallyHeader); got != want {
			t.Fatalf("request %d: %s = %q, want %q", i, CacheTallyHeader, got, want)
		}
	}
}

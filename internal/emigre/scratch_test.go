package emigre

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"github.com/why-not-xai/emigre/internal/hin"
	"github.com/why-not-xai/emigre/internal/rec"
	"github.com/why-not-xai/emigre/internal/testleak"
)

// bytesPerCall returns the heap bytes one call of f allocates, averaged
// over runs calls after one warm-up call, on one processor as
// testing.AllocsPerRun measures.
func bytesPerCall(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// liteTop returns the Amazon Lite scenario user's first n candidates.
func liteTop(t *testing.T, r *rec.Recommender, u hin.NodeID, n int) []rec.Scored {
	t.Helper()
	top, err := r.TopN(u, n)
	if err != nil || len(top) < n {
		t.Fatalf("top-%d of the lite scenario user: %v (%d items)", n, err, len(top))
	}
	return top
}

// TestSteadyStateAddExplainAllocs pins what an Add explain on Amazon
// Lite allocates once the vector cache holds its columns: the ~7 400
// candidates of its search space, the drains' residuals and the cold
// CHECK's scores are all borrowed scratch, so what is left is
// bookkeeping well under one 78 KB graph vector — against ~1.7–2.1 MB
// per explain when each was fresh. The questions are the scenario
// user's ranks 2–5, which every method answers at its first CHECK: a
// rejected CHECK teaches the rival gate, whose columns are the session's
// own allocations (DESIGN.md §3.15).
func TestSteadyStateAddExplainAllocs(t *testing.T) {
	g, r, q, te := liteScenario(t)
	ex := New(g, r, Options{AllowedEdgeTypes: te, AddEdgeType: benchLite.add})
	const budget = 64 << 10
	for _, wni := range liteTop(t, r, q.User, 5)[1:] {
		for _, method := range []Method{Incremental, Powerset, Exhaustive} {
			q := Query{User: q.User, WNI: wni.Node}
			var expl *Explanation
			var err error
			b := bytesPerCall(5, func() { expl, err = ex.ExplainWith(q, Add, method) })
			if err != nil || expl.Stats.Tests != 1 {
				t.Fatalf("%v %v: want an answer at the first CHECK, got %v (%+v)", q, method, err, expl)
			}
			if b >= budget {
				t.Errorf("%v %v: an Add explain allocates %d bytes, want < %d", q, method, b, budget)
			}
		}
	}
}

// TestColdCheckAllocatesNoGraphVector pins the cold CHECK, and Verify
// which is one, below one graph-length vector: the drain's residuals
// and the scores its top-n is selected from are borrowed
// (ppr.ForwardPush.LendFromSource), so only the counterfactual's row
// and the short list are allocated.
func TestColdCheckAllocatesNoGraphVector(t *testing.T) {
	g, r, q, te := liteScenario(t)
	ex := New(g, r, Options{AllowedEdgeTypes: te, DisableCache: true})
	ex.noGate = true
	s, err := ex.newSession(context.Background(), q, nil, Remove, Powerset)
	if err != nil {
		t.Fatal(err)
	}
	defer s.release()
	cands := s.cands[:1]
	expl := s.found(cands, false, hin.InvalidNode)
	expl.Query, expl.Mode = q, Remove
	vector := uint64(8 * g.NumNodes())
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"cold CHECK", func() error {
			s.stats.Tests = 0
			_, _, err := s.check(cands)
			return err
		}},
		{"Verify", func() error {
			_, err := ex.Verify(expl)
			return err
		}},
	} {
		var err error
		if b := bytesPerCall(20, func() { err = tc.run() }); b >= vector {
			t.Errorf("%s allocates %d bytes, want less than one %d-byte graph vector", tc.name, b, vector)
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
}

// TestRankedStreamAllocsPerSize pins the ranked stream's storage: over
// the default cap (|H| = 16, sizes ≤ 5, 6 884 combinations, every one
// ranked and yielded) a stream whose free list holds a ranking
// allocates a few objects per size — the enumerator's index buffer and
// the sort's — and none per combination.
func TestRankedStreamAllocsPerSize(t *testing.T) {
	h := make([]candidate, DefaultMaxSearchSpace)
	for i := range h {
		h[i] = candidate{edge: hin.Edge{To: hin.NodeID(i)}, contribution: float64(1 + i%3)}
	}
	// A negative gap estimate lets every combination flip it.
	s := &session{ex: &Explainer{opts: Options{MaxCombinationSize: DefaultMaxCombinationSize}}, tau: -1}
	gen := s.powersetStream(h)
	yielded := 0
	allocs := testing.AllocsPerRun(10, func() {
		yielded = 0
		if err := gen(func([]candidate) bool { yielded++; return true }); err != nil {
			t.Fatal(err)
		}
	})
	if yielded != 6884 {
		t.Fatalf("stream yielded %d combinations, want all 6884", yielded)
	}
	if limit := 4.0 * DefaultMaxCombinationSize; allocs > limit {
		t.Fatalf("ranked stream allocates %.0f objects over 6884 combinations, want at most %.0f: a few per size, none per combination", allocs, limit)
	}
}

// TestLargeRankingIsNotKept: a stream under caps far above the defaults
// (|H| = 26, sizes ≤ 5, 65 780 combinations of size 5) leaves no ranking
// of that size on the free list, where it would stay resident.
func TestLargeRankingIsNotKept(t *testing.T) {
	h := make([]candidate, 26)
	for i := range h {
		h[i] = candidate{edge: hin.Edge{To: hin.NodeID(i)}, contribution: 1}
	}
	s := &session{ex: &Explainer{opts: Options{MaxCombinationSize: 5}}, tau: -1}
	if err := s.powersetStream(h)(func([]candidate) bool { return true }); err != nil {
		t.Fatal(err)
	}
	for r, ok := rankings.Get(); ok; r, ok = rankings.Get() {
		if cap(r.scores) > maxKeptRanking {
			t.Fatalf("free list kept a ranking of %d scores, want at most %d", cap(r.scores), maxKeptRanking)
		}
	}
}

// TestRecycledScratchUnderConcurrency races Remove and Add explains of
// all three methods, Verify calls and recommends — cached and uncached —
// over one explainer and one cache on Amazon Lite, so the recycled
// scratch (residual vectors, lent scores, search spaces, the columns
// fetched ahead) passes between goroutines. Every answer must equal
// that of a sequential explainer without a cache. Run under -race.
func TestRecycledScratchUnderConcurrency(t *testing.T) {
	testleak.Check(t)
	g, r, q, te := liteScenario(t)
	opts := Options{AllowedEdgeTypes: te, AddEdgeType: benchLite.add}
	type ask struct {
		wni    hin.NodeID
		mode   Mode
		method Method
	}
	var asks []ask
	for _, wni := range liteTop(t, r, q.User, 4)[1:] {
		for _, mode := range []Mode{Remove, Add} {
			for _, method := range []Method{Incremental, Powerset, Exhaustive} {
				asks = append(asks, ask{wni.Node, mode, method})
			}
		}
	}
	type answer struct {
		expl     *Explanation
		err      string
		verified bool
	}
	run := func(ex *Explainer, a ask) answer {
		expl, err := ex.ExplainWith(Query{User: q.User, WNI: a.wni}, a.mode, a.method)
		if err != nil {
			return answer{err: err.Error()}
		}
		ok, err := ex.Verify(expl)
		if err != nil {
			return answer{err: err.Error()}
		}
		expl.Stats.Duration = 0
		return answer{expl: expl, verified: ok}
	}
	plainOpts := opts
	plainOpts.DisableCache = true
	plain := New(g, r, plainOpts)
	want := make([]answer, len(asks))
	for i, a := range asks {
		want[i] = run(plain, a)
	}
	wantTop, err := r.TopN(q.User, 10)
	if err != nil {
		t.Fatal(err)
	}

	shared := New(g, r, opts)
	got := make([]answer, len(asks))
	var wg sync.WaitGroup
	for i, a := range asks {
		wg.Add(2)
		go func() {
			defer wg.Done()
			got[i] = run(shared, a)
		}()
		go func() {
			defer wg.Done()
			for _, rr := range []*rec.Recommender{shared.r, r} { // cached, then uncached
				if top, err := rr.TopN(q.User, 10); err != nil || !reflect.DeepEqual(top, wantTop) {
					t.Errorf("concurrent top-10 (cache %v): %v, %v; want %v", rr.Cache() != nil, top, err, wantTop)
				}
			}
		}()
	}
	wg.Wait()
	for i, a := range asks {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%+v: concurrent answer diverges:\nsequential uncached: %+v\nconcurrent shared:   %+v", a, want[i], got[i])
		}
	}
}

package emigre

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"github.com/why-not-xai/emigre/internal/fault"
	"github.com/why-not-xai/emigre/internal/hin"
	"github.com/why-not-xai/emigre/internal/obs"
	"github.com/why-not-xai/emigre/internal/ppr"
	"github.com/why-not-xai/emigre/internal/pprcache"
	"github.com/why-not-xai/emigre/internal/rec"
	"github.com/why-not-xai/emigre/internal/testleak"
)

// TestCacheABExplanationsIdentical is the acceptance A/B: every mode ×
// method must produce byte-identical explanations with the vector cache
// enabled (the default) and disabled, and with the cache cold and warm:
// the batched column fetch drains a different set of targets in each of
// the three (all of them, none through the cache, only the misses), and
// a column must not depend on the batch it was computed in. The cache
// may only change how much work runs, never what is returned.
func TestCacheABExplanationsIdentical(t *testing.T) {
	for _, mode := range []Mode{Remove, Add} {
		for _, method := range allMethods(mode) {
			cached := newFixture(t, Options{Mode: mode, Method: method})
			uncached := newFixture(t, Options{Mode: mode, Method: method, DisableCache: true})
			if cached.ex.Cache() == nil {
				t.Fatal("default explainer has no cache")
			}
			if uncached.ex.Cache() != nil {
				t.Fatal("DisableCache left a cache attached")
			}

			want, errW := cached.ex.Explain(cached.query())
			got, errG := uncached.ex.Explain(uncached.query())
			if (errW == nil) != (errG == nil) {
				t.Fatalf("%v/%v: cached err=%v uncached err=%v", mode, method, errW, errG)
			}
			if errW != nil {
				if errW.Error() != errG.Error() {
					t.Fatalf("%v/%v: error mismatch: %q vs %q", mode, method, errW, errG)
				}
				continue
			}
			// Wall-clock is the only field allowed to differ.
			want.Stats.Duration, got.Stats.Duration = 0, 0
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%v/%v: explanations diverge:\ncached:   %+v\nuncached: %+v", mode, method, want, got)
			}
			warm, err := cached.ex.Explain(cached.query())
			if err != nil {
				t.Fatalf("%v/%v: warm-cache run: %v", mode, method, err)
			}
			warm.Stats.Duration = 0
			if !reflect.DeepEqual(want, warm) {
				t.Errorf("%v/%v: explanations diverge:\ncold cache: %+v\nwarm cache: %+v", mode, method, want, warm)
			}
		}
	}
}

// TestCacheABConcurrentSessionsOverlappingTargets races sessions whose
// batched fetches overlap (same user, different Why-Not items: the
// Alg. 5 target sets and rec coincide, the WNI columns cross) on one
// shared cache, cold and then warm. Whoever leads which flight, every
// answer must equal the serial uncached one. Run under -race.
func TestCacheABConcurrentSessionsOverlappingTargets(t *testing.T) {
	type ask struct {
		user, wni string
		mode      Mode
		method    Method
	}
	var asks []ask
	for _, mode := range []Mode{Remove, Add} {
		for _, method := range []Method{Incremental, Powerset, Exhaustive} {
			asks = append(asks, ask{"u", "f2", mode, method}, ask{"u", "f3", mode, method}, ask{"v", "f2", mode, method})
		}
	}
	run := func(f *fixture, a ask) (*Explanation, error) {
		expl, err := f.ex.ExplainWith(Query{User: f.ids[a.user], WNI: f.ids[a.wni]}, a.mode, a.method)
		if expl != nil {
			expl.Stats.Duration = 0
		}
		return expl, err
	}
	plain := newFixture(t, Options{DisableCache: true})
	want := make([]*Explanation, len(asks))
	wantErr := make([]error, len(asks))
	for i, a := range asks {
		want[i], wantErr[i] = run(plain, a)
	}
	shared := newFixture(t, Options{})
	shared.ex.r.Flat() // the snapshot is built unsynchronized: warm it before sharing
	for _, state := range []string{"cold", "warm"} {
		got := make([]*Explanation, len(asks))
		gotErr := make([]error, len(asks))
		var wg sync.WaitGroup
		for i, a := range asks {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], gotErr[i] = run(shared, a)
			}()
		}
		wg.Wait()
		for i, a := range asks {
			if (wantErr[i] == nil) != (gotErr[i] == nil) || (wantErr[i] != nil && wantErr[i].Error() != gotErr[i].Error()) {
				t.Fatalf("%s cache, %+v: err %v, serial uncached err %v", state, a, gotErr[i], wantErr[i])
			}
			if !reflect.DeepEqual(want[i], got[i]) {
				t.Errorf("%s cache, %+v: explanations diverge:\nserial uncached: %+v\nconcurrent:      %+v", state, a, want[i], got[i])
			}
		}
	}
	if s := shared.ex.Cache().Stats(); s.Inflight != 0 {
		t.Fatalf("flights left behind: %+v", s)
	}
}

// TestParallelExplainUnderCacheChurn is the -race stress: several
// goroutines answer the same query through one explainer whose vector
// cache is small enough to evict constantly. Correctness bar: every
// goroutine still gets the answer of an explainer with a default cache.
func TestParallelExplainUnderCacheChurn(t *testing.T) {
	testleak.Check(t)
	tiny := pprcache.New(pprcache.Config{MaxEntries: 4, Shards: 1})
	f := newFixture(t, Options{Mode: Remove, Method: Powerset, Cache: tiny})
	want, err := newFixture(t, Options{Mode: Remove, Method: Powerset}).ex.Explain(f.query())
	if err != nil {
		t.Fatal(err)
	}
	want.Stats.Duration = 0
	const goroutines = 4
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	expls := make([]*Explanation, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			expls[i], errs[i] = f.ex.Explain(f.query())
		}(i)
	}
	wg.Wait()
	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		expls[i].Stats.Duration = 0
		if !reflect.DeepEqual(want, expls[i]) {
			t.Errorf("goroutine %d diverged:\nwant: %+v\ngot:  %+v", i, want, expls[i])
		}
	}
	if s := tiny.Stats(); s.Evictions == 0 {
		t.Logf("warning: tiny cache saw no evictions (%+v); churn not exercised", s)
	}
}

// TestBatchedFetchFailureLeavesNoResidue arms the reverse engine's
// failpoint so the session's batched column fetch dies mid-drain: the
// explain fails with the injected error, no column of the batch and no
// flight stay behind, and — the one-shot rule spent — the next explain
// computes fresh and answers what an undisturbed explainer answers.
func TestBatchedFetchFailureLeavesNoResidue(t *testing.T) {
	t.Cleanup(fault.DisarmAll)
	f := newFixture(t, Options{Mode: Remove, Method: Exhaustive})
	if err := fault.Apply("ppr.reverse.loop=error(column drain died)*1"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ex.Explain(f.query()); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want the injected error", err)
	}
	s := f.ex.Cache().Stats()
	if s.Inflight != 0 || s.Entries != 1 { // the base forward pair is all that landed
		t.Fatalf("after a failed batch: %+v, want no flight and only the forward entry", s)
	}
	got, err := f.ex.Explain(f.query())
	if err != nil {
		t.Fatalf("explain after the failed batch: %v", err)
	}
	want, err := newFixture(t, Options{Mode: Remove, Method: Exhaustive}).ex.Explain(f.query())
	if err != nil {
		t.Fatal(err)
	}
	want.Stats.Duration, got.Stats.Duration = 0, 0
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("answers diverge after a failed batch:\nclean: %+v\ngot:   %+v", want, got)
	}
}

// TestCacheABTopNIdentical pins the same property one layer down: the
// recommender's ranking is bit-for-bit unaffected by an attached cache.
func TestCacheABTopNIdentical(t *testing.T) {
	plain := newFixture(t, Options{DisableCache: true})
	cachedRec := *plain.r
	cachedRec.SetCache(pprcache.New(pprcache.Config{}))

	u := plain.ids["u"]
	for range [2]int{} { // second pass serves the cached side from residency
		want, err := plain.r.TopN(u, 10)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cachedRec.TopN(u, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("rankings diverge:\nuncached: %v\ncached:   %v", want, got)
		}
	}
	if s := cachedRec.Cache().Stats(); s.Hits == 0 || s.Misses == 0 {
		t.Fatalf("cached recommender did not exercise both paths: %+v", s)
	}
}

// TestUncachedSessionRunsOneForwardPush pins the set-up cost of a
// session without a cache: the base push pair is the only forward push,
// and both the baseline top-1 and the TargetRank > 1 rank are read off
// its estimates instead of re-running the recommender.
func TestUncachedSessionRunsOneForwardPush(t *testing.T) {
	runs := obs.Default().Counter("emigre_ppr_runs_total",
		"PPR engine runs by engine.", obs.L("engine", "forward_push"))
	for _, rank := range []int{1, 2} {
		f := newFixture(t, Options{DisableCache: true, TargetRank: rank})
		q := Query{User: f.ids["u"], WNI: f.ids["f3"]}
		before := runs.Value()
		if _, err := f.ex.newSession(context.Background(), q, Remove); err != nil {
			t.Fatal(err)
		}
		if got := runs.Value() - before; got != 1 {
			t.Errorf("TargetRank %d: session set-up ran %d forward pushes, want 1", rank, got)
		}
	}
}

// TestExplainerCacheReuseAcrossQueries checks that the second identical
// query is served mostly from residency: the baseline columns and
// forward vectors computed by the first session become hits.
func TestExplainerCacheReuseAcrossQueries(t *testing.T) {
	f := newFixture(t, Options{Mode: Remove, Method: Exhaustive})
	q := f.query()
	if _, err := f.ex.Explain(q); err != nil {
		t.Fatal(err)
	}
	after1 := f.ex.Cache().Stats()
	if after1.Misses == 0 {
		t.Fatalf("first query computed nothing: %+v", after1)
	}
	expl1, err := f.ex.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	after2 := f.ex.Cache().Stats()
	if after2.Hits <= after1.Hits {
		t.Fatalf("second query hit nothing: %+v -> %+v", after1, after2)
	}
	// The base-view vectors (session baseline + targets) are all warm;
	// only counterfactual overlays may still miss. Sanity-check the
	// explanation is still produced and verified.
	if !expl1.Verified {
		t.Fatal("second explanation lost verification")
	}
}

// TestCheckVectorsStayOutOfCache: a cold CHECK stops its push once the
// verdict is certain, so its vector is not a full-ε vector and is never
// stored. After explains that ran cold CHECKs the cache holds the base
// forward vector and the session's two reverse columns, nothing keyed
// by a counterfactual overlay — the accepted one included, before and
// after Verify, which decides uncached too.
func TestCheckVectorsStayOutOfCache(t *testing.T) {
	ctx := context.Background()
	for _, mode := range []Mode{Remove, Add} {
		f := newFixture(t, Options{Mode: mode, Method: Powerset})
		cold0 := coldChecks.Value()
		expl, err := f.ex.Explain(f.query())
		if err != nil {
			t.Fatal(err)
		}
		if coldChecks.Value() == cold0 {
			t.Fatalf("%v: no cold CHECK ran; the test is vacuous", mode)
		}
		o, err := hin.NewOverlay(f.g, expl.Removals, expl.Additions)
		if err != nil {
			t.Fatal(err)
		}
		cfg := f.r.Config()
		key, ok := pprcache.ForwardKey(rec.WrapBeta(o, cfg.Beta), ppr.NewForwardPush(cfg.PPR), f.query().User)
		if !ok {
			t.Fatal("overlay view is unversioned")
		}
		for _, step := range []string{"explain", "verify"} {
			if step == "verify" {
				if ok, err := f.ex.Verify(expl); err != nil || !ok {
					t.Fatalf("%v: Verify = %v, %v", mode, ok, err)
				}
			}
			if n := f.ex.Cache().Len(); n != 3 {
				t.Fatalf("%v after %s: %d cache entries, want the base vector and the session's two columns", mode, step, n)
			}
			if _, hit := f.ex.Cache().Get(ctx, key); hit {
				t.Fatalf("%v after %s: the accepted counterfactual's vector is cached", mode, step)
			}
		}
	}
}

// TestNewDoesNotMutateCallerRecommender pins the copy semantics: New
// rebinds the recommender to the explainer's cache via a copy, so the
// caller's instance stays cache-free.
func TestNewDoesNotMutateCallerRecommender(t *testing.T) {
	f := newFixture(t, Options{})
	if f.r.Cache() != nil {
		t.Fatal("New attached its cache to the caller's recommender")
	}
	var r2 rec.Recommender = *f.r
	r2.SetCache(pprcache.New(pprcache.Config{}))
	ex := New(f.g, &r2, Options{})
	if ex.Cache() == r2.Cache() {
		t.Fatal("explainer should keep its own cache, not adopt the recommender's")
	}
	if _, err := ex.Explain(f.query()); err != nil {
		t.Fatal(err)
	}
}

// TestSharedCacheAcrossExplainAndRecommender is the serving topology:
// one cache injected into both the recommender and the explainer. The
// explainer must adopt it rather than build a private one.
func TestSharedCacheAcrossExplainAndRecommender(t *testing.T) {
	shared := pprcache.New(pprcache.Config{})
	f := newFixture(t, Options{Cache: shared})
	if f.ex.Cache() != shared {
		t.Fatal("explainer ignored the injected cache")
	}
	if _, err := f.ex.Explain(f.query()); err != nil {
		t.Fatal(err)
	}
	if s := shared.Stats(); s.Misses == 0 {
		t.Fatalf("injected cache saw no traffic: %+v", s)
	}
}

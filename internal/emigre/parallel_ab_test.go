package emigre

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"github.com/why-not-xai/emigre/internal/pprcache"
	"github.com/why-not-xai/emigre/internal/testleak"
)

// TestParallelABExplanationsIdentical is the acceptance A/B for the
// CHECK pipeline: every mode × method must produce byte-identical
// explanations (and Stats) when evaluated sequentially and with 2, 4
// and 8 speculative workers. Ordered commit may only change how much
// work runs, never what is returned — and, of the Stats, how the
// rejections split between the rival gate and the warm screen, which
// is compared as the sum Gated + DeltaScreened (foldGate).
func TestParallelABExplanationsIdentical(t *testing.T) {
	testleak.Check(t) // speculative CHECK workers must all be joined
	for _, mode := range []Mode{Remove, Add, Combined, Reweight} {
		for _, method := range allMethods(mode) {
			seq := newFixture(t, Options{Mode: mode, Method: method})
			want, errW := seq.ex.Explain(seq.query())
			for _, workers := range []int{2, 4, 8} {
				par := newFixture(t, Options{Mode: mode, Method: method, Parallelism: workers})
				got, errG := par.ex.Explain(par.query())
				if (errW == nil) != (errG == nil) {
					t.Fatalf("%v/%v w=%d: seq err=%v par err=%v", mode, method, workers, errW, errG)
				}
				if errW != nil {
					if errW.Error() != errG.Error() {
						t.Fatalf("%v/%v w=%d: error mismatch:\nseq: %q\npar: %q",
							mode, method, workers, errW, errG)
					}
					continue
				}
				w, g := foldGate(*want), foldGate(*got)
				if !reflect.DeepEqual(&w, &g) {
					t.Errorf("%v/%v w=%d: explanations diverge:\nseq: %+v\npar: %+v",
						mode, method, workers, &w, &g)
				}
			}
		}
	}
}

// TestParallelABBudgetIdentical pins budget determinism: with a tiny
// MaxTests budget, the parallel pipeline must stop at exactly the same
// stream position as the sequential search and render byte-identical
// budget-exhaustion errors and Stats — even though its workers may have
// speculatively completed checks past the budget line.
func TestParallelABBudgetIdentical(t *testing.T) {
	for _, mode := range []Mode{Remove, Add} {
		for _, method := range allMethods(mode) {
			if method == ExhaustiveDirect {
				continue // runs no CHECK, has no budget to exhaust
			}
			for _, maxTests := range []int{1, 2, 3} {
				seq := newFixture(t, Options{Mode: mode, Method: method, MaxTests: maxTests})
				want, errW := seq.ex.Explain(seq.query())
				for _, workers := range []int{2, 8} {
					par := newFixture(t, Options{
						Mode: mode, Method: method, MaxTests: maxTests, Parallelism: workers,
					})
					got, errG := par.ex.Explain(par.query())
					if (errW == nil) != (errG == nil) {
						t.Fatalf("%v/%v b=%d w=%d: seq err=%v par err=%v",
							mode, method, maxTests, workers, errW, errG)
					}
					if errW != nil {
						if errW.Error() != errG.Error() {
							t.Fatalf("%v/%v b=%d w=%d: error mismatch:\nseq: %q\npar: %q",
								mode, method, maxTests, workers, errW, errG)
						}
						if errors.Is(errW, ErrBudgetExhausted) != errors.Is(errG, ErrBudgetExhausted) {
							t.Fatalf("%v/%v b=%d w=%d: budget sentinel mismatch", mode, method, maxTests, workers)
						}
						continue
					}
					w, g := foldGate(*want), foldGate(*got)
					if !reflect.DeepEqual(&w, &g) {
						t.Errorf("%v/%v b=%d w=%d: explanations diverge:\nseq: %+v\npar: %+v",
							mode, method, maxTests, workers, &w, &g)
					}
				}
			}
		}
	}
}

// TestParallelPipelineStatsAccounting checks the pipeline gauges: a
// parallel run is counted, its committed checks equal the query's
// Stats.Tests, waste is non-negative, and nothing stays in flight after
// the explainer returns.
func TestParallelPipelineStatsAccounting(t *testing.T) {
	f := newFixture(t, Options{Mode: Remove, Method: BruteForce, Parallelism: 4})
	expl, err := f.ex.Explain(f.query())
	if err != nil {
		t.Fatal(err)
	}
	ps := f.ex.PipelineStats()
	if ps.Workers != 4 {
		t.Fatalf("Workers = %d, want 4", ps.Workers)
	}
	if ps.ParallelRuns != 1 {
		t.Fatalf("ParallelRuns = %d, want 1", ps.ParallelRuns)
	}
	if ps.ChecksCommitted != int64(expl.Stats.Tests) {
		t.Fatalf("ChecksCommitted = %d, want Stats.Tests = %d", ps.ChecksCommitted, expl.Stats.Tests)
	}
	if ps.SpeculativeWaste < 0 {
		t.Fatalf("SpeculativeWaste = %d, want >= 0", ps.SpeculativeWaste)
	}
	if ps.InflightChecks != 0 {
		t.Fatalf("InflightChecks = %d after return, want 0", ps.InflightChecks)
	}
}

// TestParallelSequentialFallbacks pins the degradation contract:
// Parallelism <= 1 must not touch the parallel evaluator at all.
func TestParallelSequentialFallbacks(t *testing.T) {
	for _, opts := range []Options{
		{Mode: Remove, Method: Powerset},
		{Mode: Remove, Method: Powerset, Parallelism: 1},
	} {
		f := newFixture(t, opts)
		if _, err := f.ex.Explain(f.query()); err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if ps := f.ex.PipelineStats(); ps.ParallelRuns != 0 {
			t.Fatalf("%+v: ParallelRuns = %d, want 0 (sequential path)", opts, ps.ParallelRuns)
		}
	}
}

// TestParallelRequestStatsTally checks the per-request context tally the
// server's request log consumes.
func TestParallelRequestStatsTally(t *testing.T) {
	f := newFixture(t, Options{Mode: Remove, Method: Powerset, Parallelism: 4})
	var prs PipelineRequestStats
	ctx := WithPipelineRequestStats(context.Background(), &prs)
	expl, err := f.ex.ExplainContext(ctx, f.query())
	if err != nil {
		t.Fatal(err)
	}
	if prs.Committed() != int64(expl.Stats.Tests) {
		t.Fatalf("request Committed = %d, want Stats.Tests = %d", prs.Committed(), expl.Stats.Tests)
	}
	if prs.Wasted() < 0 {
		t.Fatalf("request Wasted = %d, want >= 0", prs.Wasted())
	}
}

// TestParallelExplainUnderCacheChurn is the -race stress: several
// goroutines answer the same query through one explainer whose vector
// cache is small enough to evict constantly, while parallel CHECK
// workers hammer it within each query. Correctness bar: every
// goroutine still gets the sequential answer.
func TestParallelExplainUnderCacheChurn(t *testing.T) {
	testleak.Check(t)
	tiny := pprcache.New(pprcache.Config{MaxEntries: 4, Shards: 1})
	f := newFixture(t, Options{Mode: Remove, Method: Powerset, Parallelism: 8, Cache: tiny})
	want, err := newFixture(t, Options{Mode: Remove, Method: Powerset}).ex.Explain(f.query())
	if err != nil {
		t.Fatal(err)
	}
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
		w, g := foldGate(*want), foldGate(*expls[i])
		if !reflect.DeepEqual(&w, &g) {
			t.Errorf("goroutine %d diverged from sequential:\nseq: %+v\ngot: %+v", i, &w, &g)
		}
	}
	if s := tiny.Stats(); s.Evictions == 0 {
		t.Logf("warning: tiny cache saw no evictions (%+v); churn not exercised", s)
	}
}

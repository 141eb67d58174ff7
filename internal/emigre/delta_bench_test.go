package emigre

import (
	"context"
	"testing"
)

// BenchmarkDeltaCheckPhase measures one CHECK evaluation on the Amazon
// Lite graph — counterfactual overlay construction plus verdict — with
// the cold recompute-per-candidate reference versus the warm-start
// screen. Both sessions share one base query; the base push state is
// fetched once outside the timer, exactly as the cached serving path
// provides it for free.
//
// The stream cycles over the query's rejecting single-edge candidates:
// rejections dominate every long CHECK stream (the paper's bottleneck
// is precisely the rejected tests between explanations), and they are
// the case the screen fully absorbs — a warm PASS still pays a cold
// confirmation by design. Caching is disabled so the cold rows perform
// their full PPR work instead of replaying residency, and the rival gate
// is off so the delta row keeps timing the warm screen the committed
// baseline timed (left on, it would settle every op after the first
// without a push; BenchmarkRivalGate times that step).
//
// Results land in BENCH_deltappr.json; the acceptance bar is delta
// running at least 3x faster than cold, since a warm screen drains only
// the perturbed residual mass of the edited row instead of a full push
// frontier from zero.
func BenchmarkDeltaCheckPhase(b *testing.B) {
	g, r, q, te := liteScenario(b)
	ctx := context.Background()

	opts := Options{AllowedEdgeTypes: te, DisableCache: true, MaxSearchSpace: 12}

	// Decide pass/reject once, on the cold path, so both rows cycle the
	// identical rejection stream (the A/B suite pins that delta verdicts
	// agree).
	cold := New(g, r, opts)
	cold.coldOnly = true
	cs, err := cold.newSession(ctx, q, Remove)
	if err != nil {
		b.Fatal(err)
	}
	var rejs []candidate
	for _, c := range cs.cands {
		ok, _, _, err := cs.checkOnce(ctx, []candidate{c}, &cs.dsc)
		if err != nil {
			b.Fatal(err)
		}
		if !ok {
			rejs = append(rejs, c)
		}
	}
	if len(rejs) == 0 {
		b.Fatal("no rejecting candidates in the lite scenario")
	}

	for _, cfg := range []struct {
		name string
		cold bool
	}{{"cold", true}, {"delta", false}} {
		b.Run(cfg.name, func(b *testing.B) {
			ex := New(g, r, opts)
			ex.coldOnly, ex.noGate = cfg.cold, true
			s, err := ex.newSession(ctx, q, Remove)
			if err != nil {
				b.Fatal(err)
			}
			dsc := &deltaScratch{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := rejs[i%len(rejs)]
				ok, _, _, err := s.checkOnce(ctx, []candidate{c}, dsc)
				if err != nil {
					b.Fatal(err)
				}
				if ok {
					b.Fatalf("candidate %v flipped to PASS", c.edge)
				}
			}
		})
	}
}

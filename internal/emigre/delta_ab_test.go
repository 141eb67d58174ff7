package emigre

import (
	"reflect"
	"testing"

	"github.com/why-not-xai/emigre/internal/testleak"
)

// coldOnly turns a fixture's explainer into the cold-recompute
// reference the A/B suites compare against: no warm screen, one full
// PPR run per CHECK.
func coldOnly(f *fixture) *fixture {
	f.ex.coldOnly = true
	return f
}

// noGate turns the rival gate off and leaves the warm screen on: the
// reference the gate A/B suite compares against, and the setting of
// tests that pin the screen/fallback split itself.
func noGate(f *fixture) *fixture {
	f.ex.noGate = true
	return f
}

// stripVariance zeroes the Explanation fields allowed to differ between
// a gated, warm-screened run and a full-recompute run: wall-clock and
// the gate's and the warm screen's own activity tallies. Everything
// else — the candidate set, the verdicts behind it, Tests,
// CombosExamined — must match.
func stripVariance(e Explanation) Explanation {
	e.Stats.Duration = 0
	e.Stats.Gated = 0
	e.Stats.DeltaScreened = 0
	e.Stats.DeltaFallbacks = 0
	return e
}

// TestDeltaABExplanationsIdentical is the acceptance A/B for the
// warm-start CHECK screen: across modes × methods × worker counts, the
// screen may only change how a rejection is computed, never which
// candidate set is returned, what its stats say, or which error comes
// back. The warm estimates carry a different (but ε-bounded) error than
// a cold push, so this is the test that the screen's verdict rule and
// its cold pass confirmation together preserve exact output equality.
func TestDeltaABExplanationsIdentical(t *testing.T) {
	testleak.Check(t)
	for _, mode := range []Mode{Remove, Add, Combined, Reweight} {
		for _, method := range allMethods(mode) {
			cold := coldOnly(newFixture(t, Options{Mode: mode, Method: method}))
			want, errW := cold.ex.Explain(cold.query())
			for _, workers := range []int{0, 2, 4} {
				warm := newFixture(t, Options{Mode: mode, Method: method, Parallelism: workers})
				got, errG := warm.ex.Explain(warm.query())
				if (errW == nil) != (errG == nil) {
					t.Fatalf("%v/%v w=%d: cold err=%v delta err=%v", mode, method, workers, errW, errG)
				}
				if errW != nil {
					if errW.Error() != errG.Error() {
						t.Fatalf("%v/%v w=%d: error mismatch:\ncold: %q\ndelta: %q",
							mode, method, workers, errW, errG)
					}
					continue
				}
				w, g := stripVariance(*want), stripVariance(*got)
				if !reflect.DeepEqual(&w, &g) {
					t.Errorf("%v/%v w=%d: explanations diverge:\ncold: %+v\ndelta: %+v",
						mode, method, workers, &w, &g)
				}
				if method != ExhaustiveDirect && got.Stats.Tests > 0 &&
					got.Stats.Gated+got.Stats.DeltaScreened+got.Stats.DeltaFallbacks != got.Stats.Tests {
					t.Errorf("%v/%v w=%d: %d checks but gated=%d screened=%d fallbacks=%d",
						mode, method, workers, got.Stats.Tests,
						got.Stats.Gated, got.Stats.DeltaScreened, got.Stats.DeltaFallbacks)
				}
			}
		}
	}
}

// foldGate adds the gate's tally into the screen's and zeroes wall-clock:
// which rejections meet an already-learned rival depends on worker
// timing, so across worker counts only Gated + DeltaScreened is
// deterministic (every other Stats field is, separately).
func foldGate(e Explanation) Explanation {
	e.Stats.Duration = 0
	e.Stats.DeltaScreened += e.Stats.Gated
	e.Stats.Gated = 0
	return e
}

// TestDeltaStatsDeterministicAcrossWorkers pins that the work tallies
// themselves — not just the explanation — are identical for any worker
// count: the committer folds them in stream order for committed checks
// only, exactly like Tests. The gate/screen split is compared as its
// sum (see foldGate).
func TestDeltaStatsDeterministicAcrossWorkers(t *testing.T) {
	testleak.Check(t)
	for _, method := range []Method{Powerset, BruteForce} {
		seq := newFixture(t, Options{Mode: Remove, Method: method})
		want, err := seq.ex.Explain(seq.query())
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 8} {
			par := newFixture(t, Options{Mode: Remove, Method: method, Parallelism: workers})
			got, err := par.ex.Explain(par.query())
			if err != nil {
				t.Fatal(err)
			}
			w, g := foldGate(*want), foldGate(*got)
			if !reflect.DeepEqual(&w, &g) {
				t.Errorf("%v w=%d: stats diverge from sequential:\nseq: %+v\npar: %+v",
					method, workers, w.Stats, g.Stats)
			}
		}
	}
}

// TestDeltaFallbackOnLargeEditSets forces the edit-cap guard: with a
// cap of one weight change, every multi-candidate set the brute-force
// stream reaches (a pair = two changes) must take the full-recompute
// fallback. The u→f3 query has no removal explanation, so the stream
// exhausts all 7 subsets of |A|=3 — three screened singles, four
// fallback multi-sets — and the delta run must report the exact
// exhaustion error of the cold run. Screen/fallback participation is
// read off the process-global obs counters because a no-explanation
// result carries no Stats.
func TestDeltaFallbackOnLargeEditSets(t *testing.T) {
	cold := coldOnly(newFixture(t, Options{}))
	q := Query{User: cold.ids["u"], WNI: cold.ids["f3"]}
	_, errW := cold.ex.ExplainWith(q, Remove, BruteForce)
	if errW == nil {
		t.Fatal("fixture unexpectedly found a removal explanation for f3")
	}
	warm := noGate(newFixture(t, Options{}))
	warm.ex.maxEdits = 1
	screens0, fallbacks0 := deltaScreens.Value(), deltaFallbacksC.Value()
	_, errG := warm.ex.ExplainWith(q, Remove, BruteForce)
	if errG == nil || errW.Error() != errG.Error() {
		t.Fatalf("error mismatch:\ncold: %v\ndelta: %v", errW, errG)
	}
	screens := deltaScreens.Value() - screens0
	fallbacks := deltaFallbacksC.Value() - fallbacks0
	if screens != 3 || fallbacks != 4 {
		t.Fatalf("screens=%d fallbacks=%d, want 3 screened singles and 4 fallback multi-sets", screens, fallbacks)
	}
}

// TestDeltaScreenActuallyScreens guards against the screen silently
// never engaging (which would make every A/B above pass trivially):
// a standard Remove/Powerset search must resolve most of its checks on
// warm estimates.
func TestDeltaScreenActuallyScreens(t *testing.T) {
	f := newFixture(t, Options{Mode: Remove, Method: Powerset})
	expl, err := f.ex.Explain(f.query())
	if err != nil {
		t.Fatal(err)
	}
	if expl.Stats.Tests == 0 {
		t.Skip("fixture found an explanation without CHECKs")
	}
	if expl.Stats.DeltaScreened == 0 {
		t.Fatalf("stats = %+v: delta screen never engaged", expl.Stats)
	}
	if expl.Stats.DeltaFallbacks != 0 {
		t.Fatalf("stats = %+v: single-candidate removals should never exceed the edit cap", expl.Stats)
	}
	if st := expl.Stats; st.Gated+st.DeltaScreened != st.Tests {
		t.Fatalf("stats = %+v: gated + screened must add up to the checks run", st)
	}
}

// TestDeltaVerifyAgrees runs the explainer's own Verify over a
// warm-screened explanation. Verify is one cold rank check — no warm
// push, no screen tally — so agreement here is an end-to-end soundness
// check on warm verdicts by an independent judge.
func TestDeltaVerifyAgrees(t *testing.T) {
	for _, mode := range []Mode{Remove, Add} {
		f := newFixture(t, Options{Mode: mode, Method: Powerset, Parallelism: 2})
		expl, err := f.ex.Explain(f.query())
		if err != nil {
			t.Fatal(err)
		}
		screens0, fallbacks0 := deltaScreens.Value(), deltaFallbacksC.Value()
		ok, err := f.ex.Verify(expl)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("%v: warm-screened explanation failed cold verification: %+v", mode, expl)
		}
		if s, fb := deltaScreens.Value()-screens0, deltaFallbacksC.Value()-fallbacks0; s != 0 || fb != 0 {
			t.Fatalf("%v: Verify moved the screen counters (screened %d, fallbacks %d), want a bare cold check", mode, s, fb)
		}
	}
}

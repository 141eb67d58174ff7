package emigre

import (
	"reflect"
	"testing"

	"github.com/why-not-xai/emigre/internal/testleak"
)

// noGate turns the rival gate off, so every CHECK is one cold rank
// check: the reference the A/B suites compare against.
func noGate(f *fixture) *fixture {
	f.ex.noGate = true
	return f
}

// stripVariance zeroes the Explanation fields allowed to differ between
// a gated run and a cold-only run: wall-clock and which step decided
// each check. Everything else — the candidate set, the verdicts behind
// it, Tests, CombosExamined — must match.
func stripVariance(e Explanation) Explanation {
	e.Stats.Duration = 0
	e.Stats.Gated = 0
	e.Stats.Cold = 0
	return e
}

// foldGate adds the gate's tally into the cold one and zeroes
// wall-clock: which rejections meet an already-learned rival depends on
// worker timing, so across worker counts only Gated + Cold (= Tests) is
// deterministic (every other Stats field is, separately).
func foldGate(e Explanation) Explanation {
	e.Stats.Duration = 0
	e.Stats.Cold += e.Stats.Gated
	e.Stats.Gated = 0
	return e
}

// TestDeltaStatsDeterministicAcrossWorkers pins that the work tallies
// themselves — not just the explanation — are identical for any worker
// count: the committer folds them in stream order for committed checks
// only, exactly like Tests. The gate/cold split is compared as its sum
// (see foldGate).
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

// TestDeltaVerifyAgrees runs the explainer's own Verify over a searched
// explanation. Verify is one bare cold rank check — no gate, no CHECK
// tally — so agreement here is an end-to-end soundness check on the
// search's verdicts by an independent judge.
func TestDeltaVerifyAgrees(t *testing.T) {
	for _, mode := range []Mode{Remove, Add} {
		f := newFixture(t, Options{Mode: mode, Method: Powerset, Parallelism: 2})
		expl, err := f.ex.Explain(f.query())
		if err != nil {
			t.Fatal(err)
		}
		cold0, gated0 := coldChecks.Value(), gatedChecks.Value()
		ok, err := f.ex.Verify(expl)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("%v: searched explanation failed cold verification: %+v", mode, expl)
		}
		if c, g := coldChecks.Value()-cold0, gatedChecks.Value()-gated0; c != 0 || g != 0 {
			t.Fatalf("%v: Verify moved the CHECK counters (cold %d, gated %d), want a bare cold check", mode, c, g)
		}
	}
}

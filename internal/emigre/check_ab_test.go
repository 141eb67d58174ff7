package emigre

import "testing"

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

// TestDeltaVerifyAgrees runs the explainer's own Verify over a searched
// explanation. Verify is one bare cold rank check — no gate, no CHECK
// tally — so agreement here is an end-to-end soundness check on the
// search's verdicts by an independent judge.
func TestDeltaVerifyAgrees(t *testing.T) {
	for _, mode := range []Mode{Remove, Add} {
		f := newFixture(t, Options{Mode: mode, Method: Powerset})
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

package emigre

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/why-not-xai/emigre/internal/obs"
)

// TestObsABExplanationsByteIdentical is the observability acceptance
// A/B: every mode × method must produce byte-identical explanations
// with metric recording on (the default) and off. Instrumentation may
// only count work, never steer it — any divergence means a counter
// crept into control flow.
func TestObsABExplanationsByteIdentical(t *testing.T) {
	defer obs.SetEnabled(true)
	for _, mode := range []Mode{Remove, Add} {
		for _, method := range allMethods(mode) {
			obs.SetEnabled(true)
			on := newFixture(t, Options{Mode: mode, Method: method})
			wantExpl, errW := on.ex.Explain(on.query())

			obs.SetEnabled(false)
			off := newFixture(t, Options{Mode: mode, Method: method})
			gotExpl, errG := off.ex.Explain(off.query())

			if (errW == nil) != (errG == nil) {
				t.Fatalf("%v/%v: on err=%v off err=%v", mode, method, errW, errG)
			}
			if errW != nil {
				if errW.Error() != errG.Error() {
					t.Fatalf("%v/%v: error mismatch: %q vs %q", mode, method, errW, errG)
				}
				continue
			}
			// Wall-clock is the only field allowed to differ.
			wantExpl.Stats.Duration, gotExpl.Stats.Duration = 0, 0
			want, err := json.Marshal(wantExpl)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(gotExpl)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, got) {
				t.Errorf("%v/%v: explanations diverge:\non:  %s\noff: %s", mode, method, want, got)
			}
		}
	}
}

// TestObsDisabledRecordsNothing pins the gate end to end: with
// recording off, a full explanation leaves the engine counters where
// they were.
func TestObsDisabledRecordsNothing(t *testing.T) {
	defer obs.SetEnabled(true)

	// Sum runs across every engine so the probe is agnostic to which
	// engines a particular search configuration exercises.
	engines := []string{"forward_push", "reverse_push", "forward_update", "power"}
	runs := func() int64 {
		var total int64
		for _, e := range engines {
			total += obs.Default().Counter("emigre_ppr_runs_total",
				"PPR engine runs by engine.", obs.L("engine", e)).Value()
		}
		return total
	}

	obs.SetEnabled(false)
	f := newFixture(t, Options{Mode: Remove, Method: Powerset})
	before := runs()
	if _, err := f.ex.Explain(f.query()); err != nil {
		t.Fatal(err)
	}
	if got := runs(); got != before {
		t.Fatalf("disabled recording still moved counters: %d -> %d", before, got)
	}

	obs.SetEnabled(true)
	f2 := newFixture(t, Options{Mode: Remove, Method: Powerset})
	before = runs()
	if _, err := f2.ex.Explain(f2.query()); err != nil {
		t.Fatal(err)
	}
	if got := runs(); got <= before {
		t.Fatalf("enabled recording moved nothing: %d -> %d", before, got)
	}
}

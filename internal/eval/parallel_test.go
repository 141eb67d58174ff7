package eval

import (
	"testing"

	"github.com/why-not-xai/emigre/internal/dataset"
	"github.com/why-not-xai/emigre/internal/emigre"
	"github.com/why-not-xai/emigre/internal/rec"
)

// TestParallelRunMatchesSerial runs the same configuration serially and
// with four workers: outcome correctness flags and sizes must be
// identical pairwise (durations naturally differ).
func TestParallelRunMatchesSerial(t *testing.T) {
	cfg := dataset.SmallConfig()
	cfg.Users = 12
	cfg.Items = 120
	cfg.Categories = 4
	a, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := rec.DefaultConfig(a.Types.Item)
	rcfg.PPR.Epsilon = 1e-6
	r, err := rec.New(a.Graph, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	rn := NewRunner(a.Graph, r)
	base := Config{
		Users:               a.Users[:6],
		TopN:                4,
		MaxScenariosPerUser: 2,
		Methods:             fastMethods(),
		Explainer: emigre.Options{
			AllowedEdgeTypes: a.UserActionEdgeTypes(),
			AddEdgeType:      a.Types.Reviewed,
			MaxTests:         30,
		},
	}
	serial, err := rn.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	par := base
	par.Workers = 4
	parallel, err := rn.Run(par)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Outcomes) != len(parallel.Outcomes) {
		t.Fatalf("outcome counts differ: %d vs %d", len(serial.Outcomes), len(parallel.Outcomes))
	}
	for i := range serial.Outcomes {
		s, p := serial.Outcomes[i], parallel.Outcomes[i]
		if s.Method.Name != p.Method.Name || s.Scenario != p.Scenario {
			t.Fatalf("outcome %d misaligned: %s/%v vs %s/%v", i, s.Method.Name, s.Scenario, p.Method.Name, p.Scenario)
		}
		if s.Found != p.Found || s.Correct != p.Correct || s.Size != p.Size {
			t.Fatalf("outcome %d differs: serial %+v vs parallel %+v", i, s, p)
		}
	}
}

func TestParallelProgressSerialized(t *testing.T) {
	cfg := dataset.SmallConfig()
	cfg.Users = 8
	cfg.Items = 80
	cfg.Categories = 4
	a, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := rec.DefaultConfig(a.Types.Item)
	rcfg.PPR.Epsilon = 1e-6
	r, err := rec.New(a.Graph, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	rn := NewRunner(a.Graph, r)
	calls := 0
	maxDone := 0
	res, err := rn.Run(Config{
		Users:               a.Users[:4],
		TopN:                3,
		MaxScenariosPerUser: 2,
		Methods:             fastMethods()[:2],
		Workers:             8, // more workers than jobs is fine
		Explainer: emigre.Options{
			AllowedEdgeTypes: a.UserActionEdgeTypes(),
			AddEdgeType:      a.Types.Reviewed,
			MaxTests:         10,
		},
		Progress: func(done, total int) {
			calls++ // serialized by the harness; no atomic needed
			if done > maxDone {
				maxDone = done
			}
			if done > total {
				t.Errorf("done %d > total %d", done, total)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != len(res.Outcomes) || maxDone != len(res.Outcomes) {
		t.Fatalf("progress calls %d (max done %d), want %d", calls, maxDone, len(res.Outcomes))
	}
}

package eval

import (
	"bytes"
	"strings"
	"testing"

	"github.com/why-not-xai/emigre/internal/dataset"
	"github.com/why-not-xai/emigre/internal/emigre"
	"github.com/why-not-xai/emigre/internal/rec"
)

func TestRankBreakdown(t *testing.T) {
	res, _ := tinyRun(t, fastMethods(), 8)
	br := res.RankBreakdown("remove_incremental")
	if len(br) == 0 {
		t.Fatal("no rank buckets")
	}
	total := 0
	for rank, rc := range br {
		if rank < 2 {
			t.Fatalf("rank %d below 2", rank)
		}
		if rc.Correct > rc.Total {
			t.Fatalf("bucket rank %d: correct %d > total %d", rank, rc.Correct, rc.Total)
		}
		if r := rc.Rate(); r < 0 || r > 1 {
			t.Fatalf("rate %g out of range", r)
		}
		total += rc.Total
	}
	if total != len(res.Scenarios) {
		t.Fatalf("rank buckets cover %d outcomes, want %d", total, len(res.Scenarios))
	}
	if (RateCount{}).Rate() != 0 {
		t.Fatal("empty bucket rate should be 0")
	}
}

func TestScenarioActionsRecorded(t *testing.T) {
	res, a := tinyRun(t, fastMethods()[:1], 4)
	for _, sc := range res.Scenarios {
		if sc.Actions != a.Graph.OutDegree(sc.User) {
			t.Fatalf("scenario actions %d != user out-degree %d", sc.Actions, a.Graph.OutDegree(sc.User))
		}
	}
}

func TestRenderRankBreakdown(t *testing.T) {
	res, _ := tinyRun(t, fastMethods(), 6)
	var buf bytes.Buffer
	if err := RenderRankBreakdown(&buf, res); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "by Why-Not item rank") || !strings.Contains(out, "r2:") {
		t.Fatalf("rank breakdown output wrong:\n%s", out)
	}
}

func TestWriteMarkdown(t *testing.T) {
	res, _ := tinyRun(t, fastMethods(), 6)
	var buf bytes.Buffer
	if err := res.WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"## Figure 4", "## Figure 5", "## Figure 6", "## Table 5",
		"| remove_incremental |", "|---|",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestRunSweep(t *testing.T) {
	cfg := dataset.SmallConfig()
	cfg.Users = 10
	cfg.Items = 100
	cfg.Categories = 4
	a, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := rec.DefaultConfig(a.Types.Item)
	base.PPR.Epsilon = 1e-6
	betaHalf := base
	betaHalf.Beta = 0.5
	betaOne := base
	betaOne.Beta = 1
	variants := []SweepVariant{
		{Label: "beta=0.5", Rec: betaHalf},
		{Label: "beta=1.0", Rec: betaOne},
	}
	sweep, err := RunSweep(a.Graph, variants, Config{
		Users:               a.Users[:4],
		TopN:                4,
		MaxScenariosPerUser: 1,
		Methods:             fastMethods()[:1],
		Explainer: emigre.Options{
			AllowedEdgeTypes: a.UserActionEdgeTypes(),
			AddEdgeType:      a.Types.Reviewed,
			MaxTests:         10,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) != 2 {
		t.Fatalf("sweep points = %d, want 2", len(sweep))
	}
	for _, p := range sweep {
		if len(p.Results.Outcomes) == 0 {
			t.Fatalf("variant %q produced no outcomes", p.Label)
		}
	}
	var buf bytes.Buffer
	if err := RenderSweep(&buf, sweep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "beta=0.5") || !strings.Contains(buf.String(), "beta=1.0") {
		t.Fatalf("sweep rendering wrong:\n%s", buf.String())
	}
}

func TestRunSweepValidation(t *testing.T) {
	cfg := dataset.SmallConfig()
	cfg.Users = 5
	cfg.Items = 50
	cfg.Categories = 3
	a, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSweep(a.Graph, nil, Config{}); err == nil {
		t.Fatal("empty sweep should error")
	}
	bad := rec.Config{} // invalid: no item types
	if _, err := RunSweep(a.Graph, []SweepVariant{{Label: "bad", Rec: bad}}, Config{}); err == nil {
		t.Fatal("invalid variant should error")
	}
}

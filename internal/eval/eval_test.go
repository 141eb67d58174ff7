package eval

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"github.com/why-not-xai/emigre/internal/dataset"
	"github.com/why-not-xai/emigre/internal/emigre"
	"github.com/why-not-xai/emigre/internal/hin"
	"github.com/why-not-xai/emigre/internal/rec"
)

// tinyRun builds a small dataset and runs a two-method evaluation.
func tinyRun(t *testing.T, methods []MethodSpec, users int) (*Results, *dataset.Amazon) {
	t.Helper()
	cfg := dataset.SmallConfig()
	cfg.Users = 16
	cfg.Items = 150
	cfg.Categories = 5
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
	res, err := rn.Run(Config{
		Users:               a.Users[:users],
		TopN:                5,
		MaxScenariosPerUser: 2,
		Methods:             methods,
		Explainer: emigre.Options{
			AllowedEdgeTypes: a.UserActionEdgeTypes(),
			AddEdgeType:      a.Types.Reviewed,
			MaxTests:         20,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, a
}

func fastMethods() []MethodSpec {
	return []MethodSpec{
		{Name: "remove_incremental", Mode: emigre.Remove, Method: emigre.Incremental},
		{Name: "remove_brute", Mode: emigre.Remove, Method: emigre.BruteForce},
		{Name: "add_incremental", Mode: emigre.Add, Method: emigre.Incremental},
	}
}

func TestScenarioEnumeration(t *testing.T) {
	res, a := tinyRun(t, fastMethods(), 6)
	if len(res.Scenarios) == 0 {
		t.Fatal("no scenarios enumerated")
	}
	for _, sc := range res.Scenarios {
		if sc.WNI == sc.Rec {
			t.Fatal("WNI equals the recommendation")
		}
		if sc.Rank < 2 {
			t.Fatalf("rank %d below 2: position 1 is the recommendation itself", sc.Rank)
		}
		if slices.ContainsFunc(a.Graph.OutEdgesOfType(sc.User, hin.NewEdgeTypeSet()), func(e hin.Edge) bool { return e.To == sc.WNI }) {
			t.Fatal("scenario WNI already interacted with")
		}
	}
	// At most MaxScenariosPerUser per user.
	perUser := map[hin.NodeID]int{}
	for _, sc := range res.Scenarios {
		perUser[sc.User]++
	}
	for u, n := range perUser {
		if n > 2 {
			t.Fatalf("user %d has %d scenarios, cap 2", u, n)
		}
	}
}

func TestOutcomesConsistent(t *testing.T) {
	res, _ := tinyRun(t, fastMethods(), 6)
	if len(res.Outcomes) != len(res.Scenarios)*3 {
		t.Fatalf("outcomes %d != scenarios %d × methods 3", len(res.Outcomes), len(res.Scenarios))
	}
	for _, o := range res.Outcomes {
		if o.Err != "" {
			t.Fatalf("unexpected error outcome: %+v", o)
		}
		if o.Correct && !o.Found {
			t.Fatal("correct but not found")
		}
		if o.Found && o.Size == 0 {
			t.Fatal("found explanation with size 0")
		}
		if o.Duration <= 0 {
			t.Fatal("missing duration")
		}
		// CHECK-guarded methods: found implies correct.
		if o.Method.Method != emigre.ExhaustiveDirect && o.Found != o.Correct {
			t.Fatalf("verified method has Found=%v Correct=%v", o.Found, o.Correct)
		}
	}
}

func TestStatsAggregation(t *testing.T) {
	res, _ := tinyRun(t, fastMethods(), 6)
	stats := res.Stats()
	if len(stats) != 3 {
		t.Fatalf("got %d stats rows, want 3", len(stats))
	}
	for _, st := range stats {
		if st.Scenarios != len(res.Scenarios) {
			t.Fatalf("%s scenario count %d != %d", st.Method.Name, st.Scenarios, len(res.Scenarios))
		}
		if st.SuccessRate < 0 || st.SuccessRate > 1 {
			t.Fatalf("success rate %g out of range", st.SuccessRate)
		}
		if st.Correct > 0 && st.AvgSize < 1 {
			t.Fatalf("%s: avg size %g below 1 with %d correct", st.Method.Name, st.AvgSize, st.Correct)
		}
		if st.AvgTime <= 0 {
			t.Fatal("missing average time")
		}
	}
	if _, ok := statsFor(res, "remove_brute"); !ok {
		t.Fatal("statsFor(remove_brute) missing")
	}
	if _, ok := statsFor(res, "nope"); ok {
		t.Fatal("statsFor(nope) should not resolve")
	}
}

func TestRelativeSuccessAgainstBrute(t *testing.T) {
	res, _ := tinyRun(t, fastMethods(), 8)
	rel, solvable := res.RelativeSuccess("remove_brute")
	if solvable == 0 {
		t.Skip("no solvable scenarios in this tiny run")
	}
	if got := rel["remove_brute"]; got != 1 {
		t.Fatalf("baseline relative success = %g, want 1", got)
	}
	for name, frac := range rel {
		if frac < 0 || frac > 1 {
			t.Fatalf("%s relative success %g out of range", name, frac)
		}
	}
}

func TestOverridesChangeBudget(t *testing.T) {
	cfg := dataset.SmallConfig()
	cfg.Users = 10
	cfg.Items = 100
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
	methods := []MethodSpec{{Name: "remove_brute", Mode: emigre.Remove, Method: emigre.BruteForce}}
	base := emigre.Options{AllowedEdgeTypes: a.UserActionEdgeTypes(), AddEdgeType: a.Types.Reviewed, MaxTests: 1}
	starved, err := rn.Run(Config{Users: a.Users[:6], TopN: 4, MaxScenariosPerUser: 2, Methods: methods, Explainer: base})
	if err != nil {
		t.Fatal(err)
	}
	generous := base
	generous.MaxTests = 500
	funded, err := rn.Run(Config{
		Users: a.Users[:6], TopN: 4, MaxScenariosPerUser: 2, Methods: methods,
		Explainer: base,
		Overrides: map[string]emigre.Options{"remove_brute": generous},
	})
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := statsFor(starved, "remove_brute")
	s2, _ := statsFor(funded, "remove_brute")
	if s2.Correct < s1.Correct {
		t.Fatalf("bigger budget found fewer explanations: %d vs %d", s2.Correct, s1.Correct)
	}
}

func TestProgressCallback(t *testing.T) {
	calls := 0
	last := 0
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
	res, err := rn.Run(Config{
		Users: a.Users[:4], TopN: 3, MaxScenariosPerUser: 1,
		Methods:   fastMethods()[:1],
		Explainer: emigre.Options{AllowedEdgeTypes: a.UserActionEdgeTypes(), AddEdgeType: a.Types.Reviewed, MaxTests: 5},
		Progress: func(done, total int) {
			calls++
			if done <= last {
				t.Fatal("progress not monotone")
			}
			last = done
			if done > total {
				t.Fatal("done exceeds total")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != len(res.Outcomes) {
		t.Fatalf("progress called %d times, want %d", calls, len(res.Outcomes))
	}
}

func TestRenderers(t *testing.T) {
	res, a := tinyRun(t, fastMethods(), 6)
	var buf bytes.Buffer
	if err := RenderTable4(&buf, a.Graph); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Table 4") || !strings.Contains(buf.String(), "user") {
		t.Fatalf("Table 4 output wrong:\n%s", buf.String())
	}
	buf.Reset()
	if err := RenderFigure4(&buf, res); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, m := range fastMethods() {
		if !strings.Contains(out, m.Name) {
			t.Fatalf("Figure 4 missing method %s:\n%s", m.Name, out)
		}
	}
	buf.Reset()
	if err := RenderFigure5(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "relative to brute force") {
		t.Fatalf("Figure 5 output wrong:\n%s", buf.String())
	}
	if strings.Contains(buf.String(), "add_incremental") {
		t.Fatal("Figure 5 must only show remove-mode methods")
	}
	buf.Reset()
	if err := RenderFigure6(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "explanation size") {
		t.Fatalf("Figure 6 output wrong:\n%s", buf.String())
	}
	buf.Reset()
	if err := RenderTable5(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "(a)") || !strings.Contains(buf.String(), "remove_brute") {
		t.Fatalf("Table 5 output wrong:\n%s", buf.String())
	}
}

func TestWriteCSV(t *testing.T) {
	res, _ := tinyRun(t, fastMethods()[:1], 4)
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(res.Outcomes)+1 {
		t.Fatalf("CSV has %d lines, want %d", len(lines), len(res.Outcomes)+1)
	}
	if !strings.HasPrefix(lines[0], "method,mode,user") {
		t.Fatalf("CSV header wrong: %s", lines[0])
	}
}

func TestPaperMethodsComplete(t *testing.T) {
	ms := PaperMethods()
	if len(ms) != 8 {
		t.Fatalf("PaperMethods has %d entries, want 8", len(ms))
	}
	names := map[string]bool{}
	for _, m := range ms {
		names[m.Name] = true
	}
	for _, want := range []string{
		"add_incremental", "add_powerset", "add_ex",
		"remove_incremental", "remove_powerset", "remove_ex",
		"remove_ex_direct", "remove_brute",
	} {
		if !names[want] {
			t.Fatalf("missing paper method %s", want)
		}
	}
	if !names[BaselineName] {
		t.Fatal("baseline missing from paper methods")
	}
}

func TestScenariosTopNValidation(t *testing.T) {
	_, a := tinyRun(t, fastMethods()[:1], 2)
	rcfg := rec.DefaultConfig(a.Types.Item)
	r, err := rec.New(a.Graph, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	rn := NewRunner(a.Graph, r)
	if _, err := rn.Scenarios(a.Users, 1, 0); err == nil {
		t.Fatal("TopN=1 must be rejected")
	}
}

// statsFor returns the aggregated stats of one method by name.
func statsFor(r *Results, name string) (MethodStats, bool) {
	for _, st := range r.Stats() {
		if st.Method.Name == name {
			return st, true
		}
	}
	return MethodStats{}, false
}

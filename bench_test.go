// Benchmarks regenerating the paper's evaluation artifacts (§6). One
// benchmark per table and figure:
//
//	BenchmarkTable4_DegreeStats       — dataset shape (Table 4)
//	BenchmarkFigure4_SuccessRate      — success rate per method (Figure 4)
//	BenchmarkFigure5_RelativeSuccess  — success vs brute force (Figure 5)
//	BenchmarkFigure6_ExplanationSize  — explanation size (Figure 6)
//	BenchmarkTable5_Runtime           — runtime per method (Table 5)
//	BenchmarkRunningExample           — Figures 1a/1b/2, Tables 1-3 machinery
//
// The benchmark fixture is the scaled-down synthetic store so `go test
// -bench=.` completes in minutes; cmd/emigre-eval reproduces the same
// artifacts at the paper's full scale (see EXPERIMENTS.md). Non-time
// metrics are attached with b.ReportMetric: success rates as
// "success-%", sizes as "edges/expl".
package emigre_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	emigre "github.com/why-not-xai/emigre"
)

type benchEnv struct {
	ds        *emigre.Dataset
	rec       *emigre.Recommender
	ex        *emigre.Explainer
	bruteEx   *emigre.Explainer
	scenarios []emigre.EvalScenario
}

var (
	benchOnce sync.Once
	benchErr  error
	env       benchEnv
)

func setup(b *testing.B) *benchEnv {
	b.Helper()
	benchOnce.Do(func() {
		cfg := emigre.SmallDatasetConfig()
		ds, err := emigre.GenerateDataset(cfg)
		if err != nil {
			benchErr = err
			return
		}
		rcfg := emigre.DefaultRecommenderConfig(ds.Types.Item)
		rcfg.PPR.Epsilon = 1e-7
		r, err := emigre.NewRecommender(ds.Graph, rcfg)
		if err != nil {
			benchErr = err
			return
		}
		base := emigre.Options{
			AllowedEdgeTypes: ds.UserActionEdgeTypes(),
			AddEdgeType:      ds.Types.Reviewed,
			MaxTests:         60,
		}
		brute := base
		brute.MaxTests = 500
		runner := emigre.NewEvalRunner(ds.Graph, r)
		scenarios, err := runner.Scenarios(ds.Users[:8], 10, 2)
		if err != nil {
			benchErr = err
			return
		}
		env = benchEnv{
			ds:        ds,
			rec:       r,
			ex:        emigre.NewExplainer(ds.Graph, r, base),
			bruteEx:   emigre.NewExplainer(ds.Graph, r, brute),
			scenarios: scenarios,
		}
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	if len(env.scenarios) == 0 {
		b.Fatal("no benchmark scenarios")
	}
	return &env
}

func (e *benchEnv) explainerFor(m emigre.EvalMethodSpec) *emigre.Explainer {
	if m.Method == emigre.BruteForce {
		return e.bruteEx
	}
	return e.ex
}

// runScenario answers one Why-Not question; it returns (found, size).
func (e *benchEnv) runScenario(b *testing.B, m emigre.EvalMethodSpec, i int) (bool, int) {
	b.Helper()
	sc := e.scenarios[i%len(e.scenarios)]
	expl, err := e.explainerFor(m).ExplainWith(
		emigre.Query{User: sc.User, WNI: sc.WNI}, m.Mode, m.Method)
	if err != nil {
		if errors.Is(err, emigre.ErrNoExplanation) {
			return false, 0
		}
		b.Fatal(err)
	}
	if !expl.Verified {
		ok, err := e.explainerFor(m).Verify(expl)
		if err != nil {
			b.Fatal(err)
		}
		return ok, expl.Size()
	}
	return true, expl.Size()
}

// BenchmarkTable4_DegreeStats regenerates the dataset shape row of the
// evaluation: the per-node-type degree statistics of Table 4. The
// generation pass itself is benchmarked as a sub-benchmark.
func BenchmarkTable4_DegreeStats(b *testing.B) {
	e := setup(b)
	b.Run("stats", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rows := emigre.DegreeStats(e.ds.Graph)
			if len(rows) == 0 {
				b.Fatal("no stats rows")
			}
		}
	})
	b.Run("generate-small", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := emigre.SmallDatasetConfig()
			cfg.Seed = int64(i + 1)
			if _, err := emigre.GenerateDataset(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFigure4_SuccessRate measures every §6.2 method over the
// scenario set and reports its success rate — the bars of Figure 4.
func BenchmarkFigure4_SuccessRate(b *testing.B) {
	e := setup(b)
	for _, m := range emigre.PaperMethods() {
		b.Run(m.Name, func(b *testing.B) {
			correct := 0
			for i := 0; i < b.N; i++ {
				if ok, _ := e.runScenario(b, m, i); ok {
					correct++
				}
			}
			b.ReportMetric(100*float64(correct)/float64(b.N), "success-%")
		})
	}
}

// BenchmarkFigure5_RelativeSuccess measures remove-mode methods only on
// the scenarios the brute-force oracle solves — the bars of Figure 5.
func BenchmarkFigure5_RelativeSuccess(b *testing.B) {
	e := setup(b)
	bruteSpec := emigre.EvalMethodSpec{Name: "remove_brute", Mode: emigre.Remove, Method: emigre.BruteForce}
	var solvable []int
	for i := range e.scenarios {
		if ok, _ := e.runScenario(b, bruteSpec, i); ok {
			solvable = append(solvable, i)
		}
	}
	if len(solvable) == 0 {
		b.Skip("brute force solved no scenario at this scale")
	}
	for _, m := range emigre.PaperMethods() {
		if m.Mode != emigre.Remove {
			continue
		}
		b.Run(m.Name, func(b *testing.B) {
			correct := 0
			for i := 0; i < b.N; i++ {
				if ok, _ := e.runScenario(b, m, solvable[i%len(solvable)]); ok {
					correct++
				}
			}
			b.ReportMetric(100*float64(correct)/float64(b.N), "rel-success-%")
		})
	}
}

// BenchmarkFigure6_ExplanationSize reports the average explanation size
// per method — the bars of Figure 6.
func BenchmarkFigure6_ExplanationSize(b *testing.B) {
	e := setup(b)
	for _, m := range emigre.PaperMethods() {
		b.Run(m.Name, func(b *testing.B) {
			totalSize, found := 0, 0
			for i := 0; i < b.N; i++ {
				if ok, size := e.runScenario(b, m, i); ok {
					totalSize += size
					found++
				}
			}
			if found > 0 {
				b.ReportMetric(float64(totalSize)/float64(found), "edges/expl")
			}
		})
	}
}

// BenchmarkTable5_Runtime is the runtime matrix of Table 5: ns/op per
// method over the mixed found/not-found scenario stream (column a); the
// split columns are reported as found-% so the reader can relate the
// mean to the mixture.
func BenchmarkTable5_Runtime(b *testing.B) {
	e := setup(b)
	for _, m := range emigre.PaperMethods() {
		b.Run(m.Name, func(b *testing.B) {
			found := 0
			for i := 0; i < b.N; i++ {
				if ok, _ := e.runScenario(b, m, i); ok {
					found++
				}
			}
			b.ReportMetric(100*float64(found)/float64(b.N), "found-%")
		})
	}
}

// BenchmarkAblation_HyperParameters sweeps the α and β design choices
// of §6.1 over the small store, reporting each variant's remove-mode
// success rate — the ablation DESIGN.md calls out for the β-mixed
// transition.
func BenchmarkAblation_HyperParameters(b *testing.B) {
	e := setup(b)
	variants := []emigre.SweepVariant{}
	for _, alpha := range []float64{0.1, 0.15, 0.3} {
		for _, beta := range []float64{0.5, 1.0} {
			cfg := emigre.DefaultRecommenderConfig(e.ds.Types.Item)
			cfg.PPR.Alpha = alpha
			cfg.PPR.Epsilon = 1e-7
			cfg.Beta = beta
			variants = append(variants, emigre.SweepVariant{
				Label: fmt.Sprintf("a=%.2f,b=%.1f", alpha, beta),
				Rec:   cfg,
			})
		}
	}
	evalCfg := emigre.EvalConfig{
		Users:               e.ds.Users[:4],
		TopN:                4,
		MaxScenariosPerUser: 1,
		Methods: []emigre.EvalMethodSpec{
			{Name: "remove_ex", Mode: emigre.Remove, Method: emigre.Exhaustive},
		},
		Explainer: emigre.Options{
			AllowedEdgeTypes: e.ds.UserActionEdgeTypes(),
			AddEdgeType:      e.ds.Types.Reviewed,
			MaxTests:         40,
		},
	}
	for i := 0; i < b.N; i++ {
		sweep, err := emigre.RunSweep(e.ds.Graph, variants, evalCfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range sweep {
				for _, st := range p.Results.Stats() {
					if st.Method.Name == "remove_ex" {
						b.ReportMetric(100*st.SuccessRate, p.Label+"-success-%")
					}
				}
			}
		}
	}
}

// BenchmarkRunningExample replays the paper's Figure 1/2 story on the
// books graph: the Remove-mode and Add-mode explanations (whose
// Exhaustive variant exercises the Tables 1-3 contribution-matrix
// machinery) and the PRINCE contrast.
func BenchmarkRunningExample(b *testing.B) {
	books, err := emigre.NewBooks()
	if err != nil {
		b.Fatal(err)
	}
	cfg := emigre.DefaultRecommenderConfig(books.Types.Item)
	cfg.Beta = 1
	r, err := emigre.NewRecommender(books.Graph, cfg)
	if err != nil {
		b.Fatal(err)
	}
	ex := emigre.NewExplainer(books.Graph, r, emigre.Options{
		AllowedEdgeTypes: books.ActionEdgeTypes(),
		AddEdgeType:      books.Types.Rated,
	})
	q := emigre.Query{User: books.Paul, WNI: books.HarryPotter}
	b.Run("figure1a-remove-exhaustive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ex.ExplainWith(q, emigre.Remove, emigre.Exhaustive); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("figure1b-add-powerset", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ex.ExplainWith(q, emigre.Add, emigre.Powerset); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("figure2-prince", func(b *testing.B) {
		pr := emigre.NewPrinceExplainer(books.Graph, r, emigre.PrinceOptions{
			AllowedEdgeTypes: books.ActionEdgeTypes(),
		})
		for i := 0; i < b.N; i++ {
			if _, err := pr.Explain(books.Paul); err != nil {
				b.Fatal(err)
			}
		}
	})
}

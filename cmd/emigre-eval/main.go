// Command emigre-eval regenerates the paper's evaluation (§6): it
// builds the evaluation graph, enumerates (user, Why-Not item)
// scenarios, runs the eight method configurations of §6.2, and prints
// the requested tables and figures.
//
//	emigre-eval -preset small                        # quick sanity run
//	emigre-eval -preset amazon -users 25 -scenarios 3
//	emigre-eval -preset amazon -table 4              # dataset shape only
//	emigre-eval -preset small -csv outcomes.csv
//
// The -users and -scenarios flags subsample the paper's 100 × 9 matrix;
// the full matrix on the full-scale graph runs for tens of minutes.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	emigre "github.com/why-not-xai/emigre"
	"github.com/why-not-xai/emigre/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("emigre-eval: ")
	var (
		preset     = flag.String("preset", "small", "dataset preset: small or amazon")
		seed       = flag.Int64("seed", 1, "generator seed")
		users      = flag.Int("users", 10, "users to evaluate (0 = all sampled users)")
		scenarios  = flag.Int("scenarios", 3, "Why-Not questions per user (0 = all of top-N)")
		topn       = flag.Int("topn", 10, "recommendation list length")
		epsilon    = flag.Float64("epsilon", 2.7e-8, "local-push residual threshold")
		beta       = flag.Float64("beta", 0.5, "transition mix (paper: 0.5)")
		maxTests   = flag.Int("max-tests", 200, "CHECK budget per query")
		bruteTests = flag.Int("brute-tests", 2000, "CHECK budget for the brute-force oracle")
		table      = flag.Int("table", 0, "print only this table (4 or 5)")
		figure     = flag.Int("figure", 0, "print only this figure (4, 5 or 6)")
		csvPath    = flag.String("csv", "", "also export per-outcome CSV")
		mdPath     = flag.String("markdown", "", "also export the figures as a Markdown report")
		breakdown  = flag.Bool("breakdown", false, "also print success rate by Why-Not item rank")
		methodsArg = flag.String("methods", "", "comma-separated method subset (default: all eight)")
		workers    = flag.Int("workers", 1, "(scenario, method) pairs evaluated concurrently")
		sweepFlag  = flag.Bool("sweep", false, "run an α/β hyper-parameter sweep (remove_ex + add_incremental) instead of the figures")
		quiet      = flag.Bool("quiet", false, "suppress the progress meter")
		metricsOut = flag.String("metrics-out", "", "dump the run's metrics (Prometheus text format) to this file on exit")
	)
	flag.Parse()

	ds, sampled, err := buildDataset(*preset, *seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("evaluation graph: %d nodes, %d directed edges, %d sampled users\n\n",
		ds.Graph.NumNodes(), ds.Graph.NumEdges(), len(sampled))

	if *table == 4 {
		if err := emigre.RenderTable4(os.Stdout, ds.Graph); err != nil {
			log.Fatal(err)
		}
		return
	}

	cfg := emigre.DefaultRecommenderConfig(ds.Types.Item)
	cfg.PPR.Epsilon = *epsilon
	cfg.Beta = *beta
	r, err := emigre.NewRecommender(ds.Graph, cfg)
	if err != nil {
		log.Fatal(err)
	}

	if *users > 0 && *users < len(sampled) {
		sampled = sampled[:*users]
	}
	base := emigre.Options{
		AllowedEdgeTypes: ds.UserActionEdgeTypes(),
		AddEdgeType:      ds.Types.Reviewed,
		MaxTests:         *maxTests,
	}
	brute := base
	brute.MaxTests = *bruteTests

	methods, err := selectMethods(*methodsArg)
	if err != nil {
		log.Fatal(err)
	}

	if *sweepFlag {
		runSweep(ds, sampled, base, *topn, *scenarios, *workers)
		writeMetrics(*metricsOut)
		return
	}

	runner := emigre.NewEvalRunner(ds.Graph, r)
	evalCfg := emigre.EvalConfig{
		Users:               sampled,
		TopN:                *topn,
		MaxScenariosPerUser: *scenarios,
		Methods:             methods,
		Explainer:           base,
		Overrides:           map[string]emigre.Options{"remove_brute": brute},
		Workers:             *workers,
	}
	if !*quiet {
		evalCfg.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\r%d/%d", done, total)
		}
	}
	results, err := runner.Run(evalCfg)
	if err != nil {
		log.Fatal(err)
	}
	if !*quiet {
		fmt.Fprintln(os.Stderr)
	}
	fmt.Printf("%d scenarios × %d methods\n\n", len(results.Scenarios), len(methods))

	type section struct {
		table, figure int
		render        func() error
	}
	sections := []section{
		{figure: 4, render: func() error { return emigre.RenderFigure4(os.Stdout, results) }},
		{figure: 5, render: func() error { return emigre.RenderFigure5(os.Stdout, results) }},
		{figure: 6, render: func() error { return emigre.RenderFigure6(os.Stdout, results) }},
		{table: 5, render: func() error { return emigre.RenderTable5(os.Stdout, results) }},
	}
	for _, s := range sections {
		if *table != 0 && s.table != *table {
			continue
		}
		if *figure != 0 && s.figure != *figure {
			continue
		}
		if err := s.render(); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}

	if *breakdown {
		if err := emigre.RenderRankBreakdown(os.Stdout, results); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := results.WriteCSV(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *csvPath)
	}
	if *mdPath != "" {
		f, err := os.Create(*mdPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := results.WriteMarkdown(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *mdPath)
	}
	writeMetrics(*metricsOut)
}

// writeMetrics dumps the process-global registry — the engine counters
// (emigre_ppr_*) and the harness's outcome tallies (emigre_eval_*) the
// run accumulated — as a Prometheus text exposition, so batch runs can
// be post-processed with the same tooling that scrapes the server.
func writeMetrics(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	obs.Default().WritePrometheus(f)
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}

// runSweep evaluates a grid of (α, β) recommender variants and prints
// a success-rate row per point — the §6.1 design-choice ablation.
func runSweep(ds *emigre.Dataset, sampled []emigre.NodeID, base emigre.Options, topn, scenarios, workers int) {
	var variants []emigre.SweepVariant
	for _, alpha := range []float64{0.1, 0.15, 0.3} {
		for _, beta := range []float64{0.5, 1.0} {
			cfg := emigre.DefaultRecommenderConfig(ds.Types.Item)
			cfg.PPR.Alpha = alpha
			cfg.PPR.Epsilon = 1e-7
			cfg.Beta = beta
			variants = append(variants, emigre.SweepVariant{
				Label: fmt.Sprintf("a=%.2f b=%.1f", alpha, beta),
				Rec:   cfg,
			})
		}
	}
	results, err := emigre.RunSweep(ds.Graph, variants, emigre.EvalConfig{
		Users:               sampled,
		TopN:                topn,
		MaxScenariosPerUser: scenarios,
		Methods: []emigre.EvalMethodSpec{
			{Name: "remove_ex", Mode: emigre.Remove, Method: emigre.Exhaustive},
			{Name: "add_incremental", Mode: emigre.Add, Method: emigre.Incremental},
		},
		Explainer: base,
		Workers:   workers,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := emigre.RenderSweep(os.Stdout, results); err != nil {
		log.Fatal(err)
	}
}

func buildDataset(preset string, seed int64) (*emigre.Dataset, []emigre.NodeID, error) {
	switch preset {
	case "small":
		cfg := emigre.SmallDatasetConfig()
		cfg.Seed = seed
		ds, err := emigre.GenerateDataset(cfg)
		if err != nil {
			return nil, nil, err
		}
		return ds, ds.Users, nil
	case "amazon":
		cfg := emigre.DefaultDatasetConfig()
		cfg.Seed = seed
		ds, err := emigre.GenerateDataset(cfg)
		if err != nil {
			return nil, nil, err
		}
		lcfg := emigre.DefaultLiteConfig()
		lcfg.Seed = seed
		lite, sampled, err := ds.Lite(lcfg)
		if err != nil {
			return nil, nil, err
		}
		return lite, sampled, nil
	default:
		return nil, nil, fmt.Errorf("unknown preset %q (want small or amazon)", preset)
	}
}

func selectMethods(arg string) ([]emigre.EvalMethodSpec, error) {
	all := emigre.PaperMethods()
	if arg == "" {
		return all, nil
	}
	byName := map[string]emigre.EvalMethodSpec{}
	for _, m := range append(all, emigre.ExtensionMethods()...) {
		byName[m.Name] = m
	}
	var out []emigre.EvalMethodSpec
	for _, name := range strings.Split(arg, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		m, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown method %q", name)
		}
		out = append(out, m)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no methods selected")
	}
	return out, nil
}

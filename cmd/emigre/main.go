// Command emigre answers one Why-Not question on a graph.
//
//	emigre -preset books -user Paul -wni "Harry Potter"
//	emigre -graph store.json -user user-3 -wni item-42 -mode add -method powerset
//	emigre -preset books -user Paul -wni "Harry Potter" -mode combined
//	emigre -graph store.json -user user-3 -wni item-42 -diagnose
//
// Nodes are addressed by label (as stored in the graph file) or by
// numeric ID. The tool prints the current recommendation, the
// explanation edge set, its natural-language reading, and search
// statistics; with -diagnose it instead classifies why the question
// has no answer in the selected mode (§6.4 meta-explanations).
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"

	emigre "github.com/why-not-xai/emigre"
	"github.com/why-not-xai/emigre/internal/cli"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("emigre: ")
	var (
		graphPath = flag.String("graph", "", "JSON graph file from emigre-gen; empty with -preset books uses the toy graph")
		preset    = flag.String("preset", "", "built-in graph: books")
		userArg   = flag.String("user", "", "user node (label or numeric id)")
		wniArg    = flag.String("wni", "", "Why-Not item (label or numeric id)")
		modeArg   = flag.String("mode", "remove", "explanation mode: remove, add, combined, reweight")
		methodArg = flag.String("method", "powerset", "strategy: incremental, powerset, exhaustive, exhaustive-direct, brute-force")
		itemTypes = flag.String("item-types", "item", "comma-separated recommendable node types")
		edgeTypes = flag.String("edge-types", "rated,reviewed", "comma-separated T_e (explanation edge types); empty = all")
		addType   = flag.String("add-type", "rated", "edge type used for Add-mode suggestions")
		alpha     = flag.Float64("alpha", 0.15, "PPR teleportation probability")
		epsilon   = flag.Float64("epsilon", 2.7e-8, "local-push residual threshold")
		beta      = flag.Float64("beta", 1, "transition mix: 1=weighted walk, 0=uniform")
		topn      = flag.Int("topn", 10, "print the user's top-N list")
		rank      = flag.Int("rank", 1, "success criterion: place the item within the top-RANK")
		diagnose  = flag.Bool("diagnose", false, "classify the failure instead of explaining (§6.4)")
		timeout   = flag.Duration("timeout", 0, "abort the search after this long (0 = no limit)")
	)
	flag.Parse()
	if *userArg == "" || *wniArg == "" {
		log.Fatal("both -user and -wni are required")
	}

	g, err := cli.LoadGraph(*graphPath, *preset)
	if err != nil {
		log.Fatal(err)
	}
	user, err := cli.ResolveNode(g, *userArg)
	if err != nil {
		log.Fatal(err)
	}
	wni, err := cli.ResolveNode(g, *wniArg)
	if err != nil {
		log.Fatal(err)
	}

	cfg := emigre.RecommenderConfig{PPR: emigre.DefaultPPRParams(), Beta: *beta}
	cfg.PPR.Alpha = *alpha
	cfg.PPR.Epsilon = *epsilon
	cfg.ItemTypes, err = cli.NodeTypeIDs(g, *itemTypes)
	if err != nil {
		log.Fatal(err)
	}
	r, err := emigre.NewRecommender(g, cfg)
	if err != nil {
		log.Fatal(err)
	}

	allowed, err := cli.EdgeTypeIDs(g, *edgeTypes)
	if err != nil {
		log.Fatal(err)
	}
	addIDs, err := cli.EdgeTypeIDs(g, *addType)
	if err != nil {
		log.Fatal(err)
	}
	ex := emigre.NewExplainer(g, r, emigre.Options{
		AllowedEdgeTypes: emigre.NewEdgeTypeSet(allowed...),
		AddEdgeType:      addIDs[0],
		TargetRank:       *rank,
	})

	mode, err := cli.ParseMode(*modeArg)
	if err != nil {
		log.Fatal(err)
	}
	method, err := cli.ParseMethod(*methodArg)
	if err != nil {
		log.Fatal(err)
	}

	top, err := r.TopN(user, *topn)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Top-%d recommendations for %s:\n", len(top), cli.NodeName(g, user))
	for i, s := range top {
		marker := " "
		if s.Node == wni {
			marker = "*"
		}
		fmt.Printf("%s%2d. %-30s %.6g\n", marker, i+1, cli.NodeName(g, s.Node), s.Score)
	}
	fmt.Printf("\nWhy not %s?\n\n", cli.NodeName(g, wni))

	ctx, cancel := cli.Deadline(*timeout)
	defer cancel()

	q := emigre.Query{User: user, WNI: wni}
	if *diagnose {
		d, err := ex.DiagnoseContext(ctx, q, mode)
		if err != nil {
			if errors.Is(err, emigre.ErrCanceled) {
				log.Fatalf("diagnosis aborted after %v: raise -timeout to let the probes finish", *timeout)
			}
			log.Fatal(err)
		}
		fmt.Printf("diagnosis: %s\n  %s\n", d.Kind, d.Detail)
		return
	}

	expl, err := ex.ExplainWithContext(ctx, q, mode, method)
	if err != nil {
		if errors.Is(err, emigre.ErrNoExplanation) {
			fmt.Printf("no explanation found in %s mode; rerun with -diagnose for the reason\n", mode)
			return
		}
		var ce *emigre.CanceledError
		if errors.As(err, &ce) {
			log.Fatalf("search aborted after %v (%d checks done): raise -timeout or try -method incremental",
				*timeout, ce.Stats.Tests)
		}
		log.Fatal(err)
	}
	fmt.Printf("Explanation (%s mode, %s): %d edge(s)\n", mode, method, expl.Size())
	printEdges(g, "remove", expl.Removals)
	printEdges(g, "add", expl.Additions)
	printEdges(g, "reweight to", expl.Reweights)
	fmt.Println()
	fmt.Println(expl.Describe(g))
	fmt.Printf("\nsearch space: %d candidates, %d checks, %v\n",
		expl.Stats.SearchSpace, expl.Stats.Tests, expl.Stats.Duration)
}

func printEdges(g *emigre.Graph, verb string, edges []emigre.Edge) {
	for _, e := range edges {
		fmt.Printf("  %s %s -> %s (type %s, weight %g)\n",
			verb, cli.NodeName(g, e.From), cli.NodeName(g, e.To),
			g.Types().EdgeTypeName(e.Type), e.Weight)
	}
}

// Command emigre-gen generates the library's benchmark graphs and
// writes them to disk as JSON.
//
//	emigre-gen -preset amazon -out amazon.json  # full paper scale
//	emigre-gen -preset lite -out lite.json      # + Amazon-Lite sampling
//	emigre-gen -preset small -out small.json    # quick experiments
//	emigre-gen -preset books -stats             # Figure-1 toy graph
//
// With -stats the tool prints the Table-4 degree statistics of the
// generated graph; with no -out it only prints statistics.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	emigre "github.com/why-not-xai/emigre"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("emigre-gen: ")
	var (
		preset = flag.String("preset", "small", "graph preset: amazon, lite, small, books")
		seed   = flag.Int64("seed", 1, "generator seed")
		out    = flag.String("out", "", "output file (empty: stats only)")
		stats  = flag.Bool("stats", true, "print Table-4 degree statistics")
	)
	flag.Parse()

	g, err := buildGraph(*preset, *seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s graph: %d nodes, %d directed edges\n", *preset, g.NumNodes(), g.NumEdges())
	if *stats {
		if err := emigre.RenderTable4(os.Stdout, g); err != nil {
			log.Fatal(err)
		}
	}
	if *out == "" {
		return
	}
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := g.WriteJSON(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}

func buildGraph(preset string, seed int64) (*emigre.Graph, error) {
	switch preset {
	case "books":
		b, err := emigre.NewBooks()
		if err != nil {
			return nil, err
		}
		return b.Graph, nil
	case "small":
		cfg := emigre.SmallDatasetConfig()
		cfg.Seed = seed
		ds, err := emigre.GenerateDataset(cfg)
		if err != nil {
			return nil, err
		}
		return ds.Graph, nil
	case "amazon":
		cfg := emigre.DefaultDatasetConfig()
		cfg.Seed = seed
		ds, err := emigre.GenerateDataset(cfg)
		if err != nil {
			return nil, err
		}
		return ds.Graph, nil
	case "lite":
		cfg := emigre.DefaultDatasetConfig()
		cfg.Seed = seed
		ds, err := emigre.GenerateDataset(cfg)
		if err != nil {
			return nil, err
		}
		lcfg := emigre.DefaultLiteConfig()
		lcfg.Seed = seed
		lite, _, err := ds.Lite(lcfg)
		if err != nil {
			return nil, err
		}
		return lite.Graph, nil
	default:
		return nil, fmt.Errorf("unknown preset %q (want amazon, lite, small, books)", preset)
	}
}

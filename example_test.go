package emigre_test

import (
	"bytes"
	"fmt"
	"log"

	emigre "github.com/why-not-xai/emigre"
)

// ExampleExplainer reproduces the paper's Figure 1a on the books graph.
func ExampleExplainer() {
	books, err := emigre.NewBooks()
	if err != nil {
		log.Fatal(err)
	}
	cfg := emigre.DefaultRecommenderConfig(books.Types.Item)
	cfg.Beta = 1
	rec, err := emigre.NewRecommender(books.Graph, cfg)
	if err != nil {
		log.Fatal(err)
	}
	ex := emigre.NewExplainer(books.Graph, rec, emigre.Options{
		AllowedEdgeTypes: books.ActionEdgeTypes(),
		AddEdgeType:      books.Types.Rated,
	})
	expl, err := ex.ExplainWith(
		emigre.Query{User: books.Paul, WNI: books.HarryPotter},
		emigre.Remove, emigre.Powerset)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(expl.Describe(books.Graph))
	// Output: Had you not interacted with C and Candide, your top recommendation would be Harry Potter.
}

// ExampleExplainer_add reproduces Figure 1b: a suggested new action.
func ExampleExplainer_add() {
	books, _ := emigre.NewBooks()
	cfg := emigre.DefaultRecommenderConfig(books.Types.Item)
	cfg.Beta = 1
	rec, _ := emigre.NewRecommender(books.Graph, cfg)
	ex := emigre.NewExplainer(books.Graph, rec, emigre.Options{
		AllowedEdgeTypes: books.ActionEdgeTypes(),
		AddEdgeType:      books.Types.Rated,
	})
	expl, err := ex.ExplainWith(
		emigre.Query{User: books.Paul, WNI: books.HarryPotter},
		emigre.Add, emigre.Powerset)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(expl.Describe(books.Graph))
	// Output: Had you interacted with The Lord of the Rings, your top recommendation would be Harry Potter.
}

// ExampleRecommender shows the host recommender of Eq. 2.
func ExampleRecommender() {
	books, _ := emigre.NewBooks()
	cfg := emigre.DefaultRecommenderConfig(books.Types.Item)
	cfg.Beta = 1
	rec, _ := emigre.NewRecommender(books.Graph, cfg)
	top, err := rec.Recommend(books.Paul)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(books.Graph.Label(top))
	// Output: Python
}

// ExamplePrinceExplainer shows the Figure-2 contrast: a Why explanation
// of the existing recommendation lands on a different item than the
// user's Why-Not question.
func ExamplePrinceExplainer() {
	books, _ := emigre.NewBooks()
	cfg := emigre.DefaultRecommenderConfig(books.Types.Item)
	cfg.Beta = 1
	rec, _ := emigre.NewRecommender(books.Graph, cfg)
	pr := emigre.NewPrinceExplainer(books.Graph, rec, emigre.PrinceOptions{
		AllowedEdgeTypes: books.ActionEdgeTypes(),
	})
	cfe, err := pr.Explain(books.Paul)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("remove %s -> %s\n",
		books.Graph.Label(cfe.Edges[0].To), books.Graph.Label(cfe.NewTop))
	// Output: remove C -> The Alchemist
}

// ExampleExplainer_diagnose classifies an unanswerable question.
func ExampleExplainer_diagnose() {
	books, _ := emigre.NewBooks()
	cfg := emigre.DefaultRecommenderConfig(books.Types.Item)
	cfg.Beta = 1
	rec, _ := emigre.NewRecommender(books.Graph, cfg)
	ex := emigre.NewExplainer(books.Graph, rec, emigre.Options{
		AllowedEdgeTypes: books.ActionEdgeTypes(),
		AddEdgeType:      books.Types.Rated,
	})
	d, err := ex.Diagnose(emigre.Query{User: books.Paul, WNI: books.TheHobbit}, emigre.Remove)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(d.Kind)
	// Output: out-of-scope
}

// ExampleGraph_WriteJSON builds a graph by hand and round-trips it
// through JSON, the one format emigre-gen writes and the servers read.
func ExampleGraph_WriteJSON() {
	g := emigre.NewGraph()
	user := g.Types().NodeType("user")
	item := g.Types().NodeType("item")
	rated := g.Types().EdgeType("rated")
	u := g.AddNode(user, "u")
	i := g.AddNode(item, "i")
	if err := g.AddBidirectional(u, i, rated, 1); err != nil {
		log.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		log.Fatal(err)
	}
	back, err := emigre.ReadGraphJSON(&buf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(back.NumNodes(), "nodes,", back.NumEdges(), "edges, node 1 is", back.Label(1))
	// Output: 2 nodes, 2 edges, node 1 is i
}

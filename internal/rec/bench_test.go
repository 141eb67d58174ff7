package rec

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/why-not-xai/emigre/internal/hin"
	"github.com/why-not-xai/emigre/internal/ppr"
	"github.com/why-not-xai/emigre/internal/pprcache"
)

func benchGraph(b *testing.B) (*hin.Graph, []hin.NodeID, Config) {
	b.Helper()
	rng := rand.New(rand.NewSource(5))
	g := hin.NewGraph()
	user := g.Types().NodeType("user")
	item := g.Types().NodeType("item")
	rated := g.Types().EdgeType("rated")
	const nUsers, nItems = 50, 1000
	users := make([]hin.NodeID, nUsers)
	for i := range users {
		users[i] = g.AddNode(user, "")
	}
	for i := 0; i < nItems; i++ {
		g.AddNode(item, "")
	}
	for i := 0; i < nUsers*20; i++ {
		u := users[rng.Intn(nUsers)]
		it := hin.NodeID(nUsers + rng.Intn(nItems))
		if !hasEdge(g, u, it) {
			_ = g.AddBidirectional(u, it, rated, 0.5+rng.Float64())
		}
	}
	return g, users, DefaultConfig(item)
}

// BenchmarkTopN times a cold top-10 (push and selection, beta=...), a
// warm one at three list sizes (n=...: a max-scan, the serving default,
// and every candidate in order; each is a copy of the ranking kept on
// the cached vector), and on the Amazon Lite graph a warm top-10 both
// ways (lite/...): the kept ranking's copy, and selectInto on the same
// vector.
func BenchmarkTopN(b *testing.B) {
	g, users, cfg := benchGraph(b)
	for _, beta := range []float64{1, 0.5} {
		name := "beta=1"
		if beta != 1 {
			name = "beta=0.5"
		}
		b.Run(name, func(b *testing.B) {
			c := cfg
			c.Beta = beta
			r, err := New(g, c)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.TopN(users[i%len(users)], 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	r, err := New(g, cfg)
	if err != nil {
		b.Fatal(err)
	}
	r = r.WithCache(pprcache.New(pprcache.Config{}))
	for _, u := range users {
		if _, err := r.ScoresContext(context.Background(), u); err != nil {
			b.Fatal(err)
		}
	}
	for _, size := range []struct {
		name string
		n    int
	}{{"n=1", 1}, {"n=10", 10}, {"n=all", math.MaxInt32}} {
		b.Run(size.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := r.TopN(users[i%len(users)], size.n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	base, sampled := liteRecommender(b)
	warm := base.WithCache(pprcache.New(pprcache.Config{}))
	vecs := make([]ppr.Vector, len(sampled))
	for i, u := range sampled {
		if _, err := warm.TopN(u, 10); err != nil {
			b.Fatal(err)
		}
		vecs[i] = mustScores(b, warm, u)
	}
	b.Run("lite/kept", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if topSink, err = warm.TopN(sampled[i%len(sampled)], 10); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lite/selectInto", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			j := i % len(sampled)
			topSink = warm.selectInto(sampled[j], vecs[j], make([]Scored, 0, 10))
		}
	})
}

// topSink keeps the benchmarked lists live.
var topSink []Scored

func BenchmarkRankOf(b *testing.B) {
	g, users, cfg := benchGraph(b)
	r, err := New(g, cfg)
	if err != nil {
		b.Fatal(err)
	}
	top, err := r.TopN(users[0], 5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.RankOfContext(context.Background(), users[0], top[len(top)-1].Node); err != nil {
			b.Fatal(err)
		}
	}
}

package emigre

import (
	"context"
	"errors"
	"sync"
	"testing"

	"github.com/why-not-xai/emigre/internal/dataset"
	"github.com/why-not-xai/emigre/internal/hin"
	"github.com/why-not-xai/emigre/internal/rec"
)

// newBenchFixture builds the shared two-cluster fixture for benchmarks.
func newBenchFixture(b *testing.B, opts Options) *fixture {
	b.Helper()
	return newFixture(b, opts)
}

// benchLite lazily builds the paper's Amazon Lite evaluation graph and
// one Why-Not scenario over it, shared by the tests and benchmarks that
// need a realistic CHECK stream.
var benchLite struct {
	once sync.Once
	g    *hin.Graph
	r    *rec.Recommender
	q    Query
	te   hin.EdgeTypeSet
	err  error
}

func liteScenario(tb testing.TB) (*hin.Graph, *rec.Recommender, Query, hin.EdgeTypeSet) {
	benchLite.once.Do(func() {
		amazon, err := dataset.Generate(dataset.DefaultConfig())
		if err != nil {
			benchLite.err = err
			return
		}
		lite, sampled, err := amazon.Lite(dataset.DefaultLiteConfig())
		if err != nil {
			benchLite.err = err
			return
		}
		r, err := rec.New(lite.Graph, rec.DefaultConfig(lite.Types.Item))
		if err != nil {
			benchLite.err = err
			return
		}
		r.Flat() // warm the shared snapshot once, outside any timer
		for _, u := range sampled {
			list, err := r.TopN(u, 3)
			if err != nil || len(list) < 2 {
				continue
			}
			benchLite.g = lite.Graph
			benchLite.r = r
			benchLite.q = Query{User: u, WNI: list[1].Node}
			benchLite.te = lite.UserActionEdgeTypes()
			return
		}
		benchLite.err = errors.New("no sampled user with a rankable top-2 list")
	})
	if benchLite.err != nil {
		tb.Fatalf("building Amazon Lite scenario: %v", benchLite.err)
	}
	return benchLite.g, benchLite.r, benchLite.q, benchLite.te
}

func BenchmarkExplainByMethod(b *testing.B) {
	for _, mode := range []Mode{Remove, Add, Combined} {
		for _, method := range []Method{Incremental, Powerset, Exhaustive} {
			b.Run(mode.String()+"/"+method.String(), func(b *testing.B) {
				f := newBenchFixture(b, Options{})
				q := f.query()
				for i := 0; i < b.N; i++ {
					if _, err := f.ex.ExplainWith(q, mode, method); err != nil &&
						!errors.Is(err, ErrNoExplanation) {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkSearchSpaceDefinition(b *testing.B) {
	for _, mode := range []Mode{Remove, Add, Combined, Reweight} {
		b.Run(mode.String(), func(b *testing.B) {
			f := newBenchFixture(b, Options{})
			q := f.query()
			for i := 0; i < b.N; i++ {
				if _, err := f.ex.newSession(context.Background(), q, mode); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDiagnose(b *testing.B) {
	f := newBenchFixture(b, Options{})
	q := Query{User: f.ids["u"], WNI: f.ids["f3"]}
	for i := 0; i < b.N; i++ {
		if _, err := f.ex.Diagnose(q, Remove); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCombinations(b *testing.B) {
	for _, c := range []int{2, 4} {
		b.Run(string(rune('0'+c)), func(b *testing.B) {
			count := 0
			for i := 0; i < b.N; i++ {
				combinations(16, c, func([]int) bool { count++; return true })
			}
			_ = count
		})
	}
}

package rec

import (
	"context"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/why-not-xai/emigre/internal/dataset"
	"github.com/why-not-xai/emigre/internal/hin"
	"github.com/why-not-xai/emigre/internal/pprcache"
)

// lite is the Amazon Lite graph under the default configuration: an
// uncached recommender over it and the sampled users.
var lite struct {
	once  sync.Once
	r     *Recommender
	users []hin.NodeID
	err   error
}

func liteRecommender(tb testing.TB) (*Recommender, []hin.NodeID) {
	tb.Helper()
	lite.once.Do(func() {
		amazon, err := dataset.Generate(dataset.DefaultConfig())
		if err != nil {
			lite.err = err
			return
		}
		ds, sampled, err := amazon.Lite(dataset.DefaultLiteConfig())
		if err != nil {
			lite.err = err
			return
		}
		if lite.r, lite.err = New(ds.Graph, DefaultConfig(ds.Types.Item)); lite.err == nil {
			lite.r.Flat()
			lite.users = sampled
		}
	})
	if lite.err != nil {
		tb.Fatal(lite.err)
	}
	return lite.r, lite.users
}

// fullRanking is u's whole candidate ranking by a fresh selectInto.
func fullRanking(t testing.TB, r *Recommender, u hin.NodeID) []Scored {
	t.Helper()
	scores, err := r.ScoresContext(context.Background(), u)
	if err != nil {
		t.Fatal(err)
	}
	return r.selectInto(u, scores, make([]Scored, 0, len(r.items)))
}

// TestTopNMemoMatchesSelection: on Lite users, a cache-attached
// TopNContext answers every n — 1, 10, 11, all candidates and more —
// with the first n entries of a fresh selection, whether the lists are
// asked in growing order (each one re-ranks) or shrinking order (all
// but the first are copied from the kept prefix), and a caller writing
// into a returned list does not reach the kept one.
func TestTopNMemoMatchesSelection(t *testing.T) {
	base, users := liteRecommender(t)
	ctx := context.Background()
	for _, u := range users[:8] {
		want := fullRanking(t, base, u)
		sizes := []int{1, 10, 11, len(want), len(want) + 1, math.MaxInt32}
		for _, order := range []string{"growing", "shrinking"} {
			r := base.WithCache(pprcache.New(pprcache.Config{}))
			if order == "shrinking" {
				sizes = slices.Clone(sizes)
				slices.Reverse(sizes)
			}
			for _, n := range sizes {
				got, err := r.TopNContext(ctx, u, n)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want[:min(n, len(want))]) {
					t.Fatalf("user %d, %s, n=%d: memoised list differs from selectInto", u, order, n)
				}
				k, _ := r.key(pprcache.Forward, r.engine, u)
				if _, kept, _ := r.scores(ctx, u, k, true); kept == nil || len(kept.top) < min(n, len(want)) {
					t.Fatalf("user %d, %s, n=%d: no prefix of at least n kept", u, order, n)
				}
				got[0] = Scored{}
			}
		}
	}
}

// TestTopNMemoTaggedByCandidateSet: two recommenders with different
// item types share one cache under identical keys; each reads only its
// own ranking and never the other's prefix.
func TestTopNMemoTaggedByCandidateSet(t *testing.T) {
	rg := newRankGraph(t, 4, 0.5)
	c := pprcache.New(pprcache.Config{})
	items, err := New(rg.g, rg.cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := rg.cfg
	cat, _ := rg.g.Types().LookupNodeType("category")
	cfg.ItemTypes = append(slices.Clone(rg.cfg.ItemTypes), cat)
	both, err := New(rg.g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, u := range rg.users[:4] {
		wantItems, wantBoth := fullRanking(t, items, u), fullRanking(t, both, u)
		if reflect.DeepEqual(wantItems, wantBoth) {
			t.Fatalf("user %d: the two candidate sets rank alike; the test cannot tell them apart", u)
		}
		a, b := items.WithCache(c), both.WithCache(c)
		for i, n := range []int{20, 5, 20, 5, math.MaxInt32, 3} {
			r, want := a, wantItems
			if i%2 == 1 {
				r, want = b, wantBoth
			}
			got, err := r.TopNContext(ctx, u, n)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want[:min(n, len(want))]) {
				t.Fatalf("user %d, call %d (n=%d): read the other recommender's ranking", u, i, n)
			}
		}
	}
	if c.Len() != 4 {
		t.Fatalf("%d cache entries for 4 users, want the two recommenders to share keys", c.Len())
	}
}

// TestTopNMemoConcurrentMixedSizes: many callers ask one user's lists
// at mixed sizes, ranking, replacing and copying the kept prefix
// concurrently; run under -race.
func TestTopNMemoConcurrentMixedSizes(t *testing.T) {
	rg := newRankGraph(t, 7, 0.5)
	base, err := New(rg.g, rg.cfg)
	if err != nil {
		t.Fatal(err)
	}
	base.Flat()
	u := rg.users[0]
	want := fullRanking(t, base, u)
	r := base.WithCache(pprcache.New(pprcache.Config{}))
	sizes := []int{1, 3, 10, 11, len(want), math.MaxInt32}
	var wg sync.WaitGroup
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 60 {
				n := sizes[(w+i)%len(sizes)]
				got, err := r.TopNContext(context.Background(), u, n)
				if err != nil || !reflect.DeepEqual(got, want[:min(n, len(want))]) {
					t.Errorf("n=%d: TopNContext = %v, %v", n, got, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

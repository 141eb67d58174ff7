package pprcache

import (
	"context"
	"sync"
	"testing"

	"github.com/why-not-xai/emigre/internal/dataset"
	"github.com/why-not-xai/emigre/internal/hin"
	"github.com/why-not-xai/emigre/internal/ppr"
)

// benchGraph lazily builds the paper's Amazon Lite evaluation graph
// (DefaultConfig → Lite with the §6.1 sampling parameters) exactly once
// across all benchmarks, flattened to a CSR snapshot for engine speed.
var benchGraph struct {
	once  sync.Once
	csr   *hin.CSR
	users []hin.NodeID
	items []hin.NodeID
	err   error
}

func liteCSR(tb testing.TB) (*hin.CSR, []hin.NodeID, []hin.NodeID) {
	benchGraph.once.Do(func() {
		amazon, err := dataset.Generate(dataset.DefaultConfig())
		if err != nil {
			benchGraph.err = err
			return
		}
		lite, sampled, err := amazon.Lite(dataset.DefaultLiteConfig())
		if err != nil {
			benchGraph.err = err
			return
		}
		benchGraph.csr = hin.NewCSR(lite.Graph)
		benchGraph.users = sampled
		benchGraph.items = lite.Items
	})
	if benchGraph.err != nil {
		tb.Fatalf("building Amazon Lite: %v", benchGraph.err)
	}
	return benchGraph.csr, benchGraph.users, benchGraph.items
}

// BenchmarkCacheColdWarmForward measures a forward-vector lookup on a
// cold key (miss → full ForwardPush computation) against the same
// lookup on a warm key (resident hit). The cold/warm ratio is the
// cache's value proposition; the acceptance bar is ≥10x.
func BenchmarkCacheColdWarmForward(b *testing.B) {
	csr, users, _ := liteCSR(b)
	engine := ppr.NewForwardPush(ppr.DefaultParams())
	ctx := context.Background()
	compute := func(u hin.NodeID) func(context.Context) (ppr.Vector, error) {
		return func(cctx context.Context) (ppr.Vector, error) {
			return engine.FromSourceContext(cctx, csr, u)
		}
	}
	u := users[0]
	k, ok := ForwardKey(csr, engine, u)
	if !ok {
		b.Fatal("CSR snapshot is not versioned")
	}

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c := New(Config{})
			b.StartTimer()
			if _, hit, err := c.GetOrCompute(ctx, k, compute(u)); err != nil || hit {
				b.Fatalf("hit=%v err=%v", hit, err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		c := New(Config{})
		if _, _, err := c.GetOrCompute(ctx, k, compute(u)); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, hit, err := c.GetOrCompute(ctx, k, compute(u)); err != nil || !hit {
				b.Fatalf("hit=%v err=%v", hit, err)
			}
		}
	})
}

// BenchmarkCacheColdWarmReverse is the reverse-column counterpart:
// ReversePush to an item target, cold (miss) vs warm (hit).
func BenchmarkCacheColdWarmReverse(b *testing.B) {
	csr, _, items := liteCSR(b)
	if len(items) == 0 {
		b.Fatal("Amazon Lite graph has no items")
	}
	engine := ppr.NewReversePush(ppr.DefaultParams())
	ctx := context.Background()
	t := items[0]
	compute := func(cctx context.Context) (ppr.Vector, error) {
		return engine.ToTargetContext(cctx, csr, t)
	}
	k, ok := ReverseKey(csr, engine, t)
	if !ok {
		b.Fatal("CSR snapshot is not versioned")
	}

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c := New(Config{})
			b.StartTimer()
			if _, hit, err := c.GetOrCompute(ctx, k, compute); err != nil || hit {
				b.Fatalf("hit=%v err=%v", hit, err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		c := New(Config{})
		if _, _, err := c.GetOrCompute(ctx, k, compute); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, hit, err := c.GetOrCompute(ctx, k, compute); err != nil || !hit {
				b.Fatalf("hit=%v err=%v", hit, err)
			}
		}
	})
}

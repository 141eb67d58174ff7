package ppr

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/why-not-xai/emigre/internal/hin"
)

// benchGraph builds a random bidirectional graph and its CSR snapshot.
func benchGraph(nodes, extra int) (*hin.Graph, *hin.CSR) {
	rng := rand.New(rand.NewSource(42))
	g := randomBidirGraph(rng, nodes, extra)
	return g, hin.NewCSR(g)
}

func benchSizes() []struct{ nodes, extra int } {
	return []struct{ nodes, extra int }{
		{nodes: 500, extra: 2000},
		{nodes: 5000, extra: 20000},
	}
}

func BenchmarkForwardPush(b *testing.B) {
	for _, sz := range benchSizes() {
		_, csr := benchGraph(sz.nodes, sz.extra)
		params := DefaultParams()
		b.Run(fmt.Sprintf("n=%d", sz.nodes), func(b *testing.B) {
			e := NewForwardPush(params)
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				if _, err := e.FromSourceContext(ctx, csr, hin.NodeID(i%sz.nodes)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkReversePush(b *testing.B) {
	for _, sz := range benchSizes() {
		_, csr := benchGraph(sz.nodes, sz.extra)
		params := DefaultParams()
		b.Run(fmt.Sprintf("n=%d", sz.nodes), func(b *testing.B) {
			e := NewReversePush(params)
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				if _, err := e.ToTargetContext(ctx, csr, hin.NodeID(i%sz.nodes)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPowerIteration(b *testing.B) {
	_, g := benchGraph(500, 2000)
	e := NewPower(DefaultParams())
	e.Tol = 1e-10
	b.Run("from-source", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := e.FromSource(g, hin.NodeID(i%500)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("to-target", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := e.ToTarget(g, hin.NodeID(i%500)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationWarmVsCold is the ablation for the §5.3
// optimization: the cost of evaluating a counterfactual (one user
// out-row edit) with a fresh forward push versus a warm-start repair of
// the base push state. Both run over row-patched snapshots built outside
// the timer, the shape CHECK hands the engine.
func BenchmarkAblationWarmVsCold(b *testing.B) {
	g, csr := benchGraph(5000, 20000)
	params := DefaultParams()
	s := hin.NodeID(3)
	u := s
	et, _ := g.Types().LookupEdgeType("e")

	// Pre-build a pool of counterfactual snapshots toggling u's edges.
	var patched []*hin.CSR
	edges := g.OutEdgesOfType(u, hin.NewEdgeTypeSet())
	for i := 0; i < 16 && i < len(edges); i++ {
		o, err := hin.NewOverlay(g, []hin.Edge{edges[i%len(edges)]},
			[]hin.Edge{{From: u, To: hin.NodeID((i*37 + 11) % 5000), Type: et, Weight: 0.8}})
		if err != nil {
			continue
		}
		patched = append(patched, patchRow(csr, o, u))
	}
	if len(patched) == 0 {
		b.Skip("no overlays constructible")
	}
	e := NewForwardPush(params)
	ctx := context.Background()

	b.Run("cold-recompute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := e.FromSourceContext(ctx, patched[i%len(patched)], s); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm-update", func(b *testing.B) {
		base, err := e.RunContext(ctx, csr, s)
		if err != nil {
			b.Fatal(err)
		}
		sc := &UpdateScratch{}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.UpdateForEdit(ctx, csr, patched[i%len(patched)], base, []hin.NodeID{u}, sc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

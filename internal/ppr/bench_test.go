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
		g, csr := benchGraph(sz.nodes, sz.extra)
		params := DefaultParams()
		b.Run(fmt.Sprintf("n=%d/graph", sz.nodes), func(b *testing.B) {
			e := NewForwardPush(params)
			for i := 0; i < b.N; i++ {
				if _, err := e.FromSource(g, hin.NodeID(i%sz.nodes)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/csr", sz.nodes), func(b *testing.B) {
			e := NewForwardPush(params)
			for i := 0; i < b.N; i++ {
				if _, err := e.FromSource(csr, hin.NodeID(i%sz.nodes)); err != nil {
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
			for i := 0; i < b.N; i++ {
				if _, err := e.ToTarget(csr, hin.NodeID(i%sz.nodes)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReversePushBatch drains K columns per graph pass and reports
// the cost of one column: the blocked kernel's whole point is that
// ms/col falls as K grows while allocations stay one vector per column.
func BenchmarkReversePushBatch(b *testing.B) {
	const nodes = 5000
	_, csr := benchGraph(nodes, 20000)
	e := NewReversePush(DefaultParams())
	for _, K := range []int{1, 2, 4, 10} {
		b.Run(fmt.Sprintf("K=%d", K), func(b *testing.B) {
			b.ReportAllocs()
			ts := make([]hin.NodeID, K)
			for i := 0; i < b.N; i++ {
				for k := range ts {
					ts[k] = hin.NodeID((i*K + k*37) % nodes)
				}
				if _, err := e.ToTargets(context.Background(), csr, ts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N*K), "ms/col")
		})
	}
}

func BenchmarkPowerIteration(b *testing.B) {
	g, _ := benchGraph(500, 2000)
	params := DefaultParams()
	params.Tol = 1e-10
	e := NewPower(params)
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
		o, err := hin.NewOverlay(csr, []hin.Edge{edges[i%len(edges)]},
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

	b.Run("cold-recompute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := e.FromSource(patched[i%len(patched)], s); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm-update", func(b *testing.B) {
		base, err := e.Run(csr, s)
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		sc := &UpdateScratch{}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.UpdateForEdit(ctx, csr, patched[i%len(patched)], base, []hin.NodeID{u}, sc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

package rec

import (
	"context"
	"math"
	"slices"
	"testing"

	"github.com/why-not-xai/emigre/internal/hin"
	"github.com/why-not-xai/emigre/internal/pprcache"
)

// mixedRows is the reference for a β-mixed snapshot, built straight
// from a graph's raw edges with the RecWalk formula
//
//	W(v,x) = β·w/Σw(v) + (1−β)/deg(v)
//
// (β = 1 keeps the raw weights and their sum): every node's row with
// its weight sum, and the padded out-rows and in-rows the push kernels
// walk.
type mixedRows struct {
	out      [][]hin.HalfEdge
	sum      []float64
	rowStart []int32
	rowDst   []hin.NodeID
	rowProb  []float64
	inStart  []int32
	inSrc    []hin.NodeID
	inProb   []float64
}

func referenceMix(g *hin.Graph, beta float64) *mixedRows {
	n := g.NumNodes()
	m := &mixedRows{out: make([][]hin.HalfEdge, n), sum: make([]float64, n)}
	type lane struct {
		src  hin.NodeID
		prob float64
	}
	in := make([][]lane, n)
	pad := func(lanes int) int { return (lanes + hin.InLanes - 1) / hin.InLanes * hin.InLanes }
	for v := range hin.NodeID(n) {
		total, deg := g.OutWeightSum(v), g.OutDegree(v)
		g.OutEdges(v, func(h hin.HalfEdge) bool {
			switch {
			case beta == 1:
			case total <= 0 || deg == 0:
				return false
			default:
				h.Weight = beta*h.Weight/total + (1-beta)/float64(deg)
			}
			m.out[v] = append(m.out[v], h)
			return true
		})
		m.sum[v] = total
		if beta != 1 && len(m.out[v]) > 0 {
			m.sum[v] = 1
		}
		m.rowStart = append(m.rowStart, int32(len(m.rowDst)))
		for _, h := range m.out[v] {
			prob := h.Weight / m.sum[v]
			m.rowDst, m.rowProb = append(m.rowDst, h.Node), append(m.rowProb, prob)
			in[h.Node] = append(in[h.Node], lane{v, prob})
		}
		for at := len(m.rowDst); at < pad(len(m.rowDst)); at++ {
			m.rowDst, m.rowProb = append(m.rowDst, hin.NodeID(n+at%hin.InLanes)), append(m.rowProb, 0)
		}
	}
	m.rowStart = append(m.rowStart, int32(len(m.rowDst)))
	for v := range n {
		m.inStart = append(m.inStart, int32(len(m.inSrc)))
		for _, l := range in[v] {
			m.inSrc, m.inProb = append(m.inSrc, l.src), append(m.inProb, l.prob)
		}
		for at := len(m.inSrc); at < pad(len(m.inSrc)); at++ {
			m.inSrc, m.inProb = append(m.inSrc, hin.NodeID(n+at%hin.InLanes)), append(m.inProb, 0)
		}
	}
	m.inStart = append(m.inStart, int32(len(m.inSrc)))
	return m
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// mixedVersion is the version a β-mixed snapshot of g carries: g's
// salted with β's bit pattern, unsalted at β = 1.
func mixedVersion(g *hin.Graph, beta float64) hin.Version {
	ver := g.Version()
	if beta == 1 {
		return ver
	}
	return ver.Mix(math.Float64bits(beta))
}

// TestMixedSnapshotPinnedToFormula: for β ∈ {0, 0.5, 1} on Lite, the
// scoring snapshot's rows — every node's OutSlice and OutWeightSum, the
// padded OutRows and InRows — equal, bit for bit, the formula applied
// to the raw graph edges, and the snapshot's version is the graph's
// salted with β.
func TestMixedSnapshotPinnedToFormula(t *testing.T) {
	lr, _ := liteRecommender(t)
	g := lr.base
	for _, beta := range []float64{0, 0.5, 1} {
		cfg := lr.Config()
		cfg.Beta = beta
		r, err := New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		flat, want := r.Flat(), referenceMix(g, beta)
		for v := range hin.NodeID(g.NumNodes()) {
			got := flat.OutSlice(v)
			if len(got) != len(want.out[v]) {
				t.Fatalf("β=%g node %d: %d out-edges, want %d", beta, v, len(got), len(want.out[v]))
			}
			for i, h := range got {
				w := want.out[v][i]
				if h.Node != w.Node || h.Type != w.Type || math.Float64bits(h.Weight) != math.Float64bits(w.Weight) {
					t.Fatalf("β=%g node %d edge %d: %+v, want %+v", beta, v, i, h, w)
				}
			}
			if s := flat.OutWeightSum(v); math.Float64bits(s) != math.Float64bits(want.sum[v]) {
				t.Fatalf("β=%g node %d: OutWeightSum %v, want %v", beta, v, s, want.sum[v])
			}
		}
		start, dst, prob := flat.OutRows()
		if !slices.Equal(start, want.rowStart) || !slices.Equal(dst, want.rowDst) || !sameBits(prob, want.rowProb) {
			t.Fatalf("β=%g: OutRows differ from the formula", beta)
		}
		start, src, prob := flat.InRows()
		if !slices.Equal(start, want.inStart) || !slices.Equal(src, want.inSrc) || !sameBits(prob, want.inProb) {
			t.Fatalf("β=%g: InRows differ from the formula", beta)
		}
		if got, ok := flat.Version(); !ok || got != mixedVersion(g, beta) {
			t.Fatalf("β=%g: snapshot version %+v (ok %v), want the graph's salted with β", beta, got, ok)
		}
	}
}

// TestPatchedRecommendNeverCached: an overlay is unversioned, so a
// cache-attached WithUserPatch copy builds no cache key. It stores
// nothing and scores the same bits as an uncached copy, at the paper's
// β = 0.5 and at β = 1.
func TestPatchedRecommendNeverCached(t *testing.T) {
	lr, users := liteRecommender(t)
	g := lr.base
	u := users[0]
	var drop []hin.Edge
	g.OutEdges(u, func(h hin.HalfEdge) bool {
		drop = append(drop, hin.Edge{From: u, To: h.Node, Type: h.Type, Weight: h.Weight})
		return len(drop) < 1
	})
	o, err := hin.NewOverlay(g, drop, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, beta := range []float64{0.5, 1} {
		cfg := lr.Config()
		cfg.Beta = beta
		r, err := New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cache := pprcache.New(pprcache.Config{})
		patched := r.WithCache(cache).WithUserPatch(o, u)
		cached, err := patched.ScoresContext(context.Background(), u)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := patched.Recommend(u); err != nil {
			t.Fatal(err)
		}
		if n := cache.Len(); n != 0 {
			t.Fatalf("β=%g: a patched copy cached %d vectors, want none", beta, n)
		}
		fresh, err := r.WithUserPatch(o, u).ScoresContext(context.Background(), u)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(cached, fresh) {
			t.Fatalf("β=%g: a cache-attached patched copy scores differently from an uncached one", beta)
		}
	}
}

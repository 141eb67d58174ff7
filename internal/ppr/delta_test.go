package ppr

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/why-not-xai/emigre/internal/hin"
)

// applyUserEdits builds an overlay removing some of u's out-edges and
// adding new ones, returning it with the edit lists.
func applyUserEdits(t *testing.T, g *hin.Graph, u hin.NodeID, rng *rand.Rand) *hin.Overlay {
	t.Helper()
	et, _ := g.Types().LookupEdgeType("e")
	var removals, additions []hin.Edge
	for _, e := range g.OutEdgesOfType(u, hin.NewEdgeTypeSet()) {
		if rng.Float64() < 0.4 {
			removals = append(removals, e)
		}
	}
	for i := 0; i < 3; i++ {
		v := hin.NodeID(rng.Intn(g.NumNodes()))
		if v == u {
			continue
		}
		if _, exists := g.EdgeWeight(u, v, et); exists {
			continue
		}
		dup := false
		for _, e := range additions {
			if e.To == v {
				dup = true
			}
		}
		if !dup {
			additions = append(additions, hin.Edge{From: u, To: v, Type: et, Weight: rng.Float64() + 0.2})
		}
	}
	o, err := hin.NewOverlay(g, removals, additions)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// toggleRowOverlay returns an overlay over view editing exactly node
// u's out-row: the first existing out-edge removed and one new edge
// added toward a non-neighbor. Unlike applyUserEdits it accepts any
// view, so edits can be stacked across rows.
func toggleRowOverlay(t *testing.T, g *hin.Graph, view hin.View, u hin.NodeID, rng *rand.Rand) *hin.Overlay {
	t.Helper()
	et, _ := g.Types().LookupEdgeType("e")
	var rm, add []hin.Edge
	view.OutEdges(u, func(h hin.HalfEdge) bool {
		rm = append(rm, hin.Edge{From: u, To: h.Node, Type: h.Type, Weight: h.Weight})
		return false
	})
	for attempt := 0; attempt < g.NumNodes(); attempt++ {
		v := hin.NodeID(rng.Intn(g.NumNodes()))
		if v == u {
			continue
		}
		has := false
		view.OutEdges(u, func(h hin.HalfEdge) bool {
			if h.Node == v {
				has = true
				return false
			}
			return true
		})
		if !has {
			add = append(add, hin.Edge{From: u, To: v, Type: et, Weight: rng.Float64() + 0.3})
			break
		}
	}
	o, err := hin.NewOverlay(view, rm, add)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// exactReverseColumn computes the exact PPR(·, t) column by running the
// power solver from every source (graphs in these tests are small).
func exactReverseColumn(t *testing.T, g hin.View, target hin.NodeID) Vector {
	t.Helper()
	col := make(Vector, g.NumNodes())
	solver := NewPower(testParams())
	for s := 0; s < g.NumNodes(); s++ {
		vec, err := solver.FromSource(g, hin.NodeID(s))
		if err != nil {
			t.Fatal(err)
		}
		col[s] = vec[target]
	}
	return col
}

func TestForwardUpdateForEditMatchesRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	sc := &UpdateScratch{} // reused across trials on purpose
	for trial := 0; trial < 12; trial++ {
		g := randomBidirGraph(rng, 12+rng.Intn(20), 20+rng.Intn(40))
		params := testParams()
		s := hin.NodeID(rng.Intn(g.NumNodes()))
		u := hin.NodeID(rng.Intn(g.NumNodes()))
		e := NewForwardPush(params)
		base, err := e.Run(g, s)
		if err != nil {
			t.Fatal(err)
		}
		o := applyUserEdits(t, g, u, rng)
		warm, err := e.UpdateForEdit(context.Background(), g, o, base, []hin.NodeID{u}, sc)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := NewPower(params).FromSource(o, s)
		if err != nil {
			t.Fatal(err)
		}
		for v := range exact {
			if diff := math.Abs(exact[v] - warm.Estimates[v]); diff > 1e-6 {
				t.Fatalf("trial %d: PPR(%d,%d) warm %g vs exact %g (diff %g)",
					trial, s, v, warm.Estimates[v], exact[v], diff)
			}
		}
		// The base pair must be untouched: warm starts are stateless.
		again, err := e.Run(g, s)
		if err != nil {
			t.Fatal(err)
		}
		for v := range again.Estimates {
			if base.Estimates[v] != again.Estimates[v] || base.Residuals[v] != again.Residuals[v] {
				t.Fatalf("trial %d: base push state mutated at node %d", trial, v)
			}
		}
	}
}

func TestForwardUpdateForEditMultiRow(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for trial := 0; trial < 8; trial++ {
		g := randomBidirGraph(rng, 15+rng.Intn(15), 30+rng.Intn(30))
		params := testParams()
		s := hin.NodeID(rng.Intn(g.NumNodes()))
		u1 := hin.NodeID(rng.Intn(g.NumNodes()))
		u2 := hin.NodeID((int(u1) + 1 + rng.Intn(g.NumNodes()-1)) % g.NumNodes())
		e := NewForwardPush(params)
		base, err := e.Run(g, s)
		if err != nil {
			t.Fatal(err)
		}
		// Two edited rows, composed overlays; old -> new differs at u1 and u2.
		o1 := applyUserEdits(t, g, u1, rng)
		o2 := toggleRowOverlay(t, g, o1, u2, rng)
		warm, err := e.UpdateForEdit(context.Background(), g, o2, base, []hin.NodeID{u1, u2}, nil)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := NewPower(params).FromSource(o2, s)
		if err != nil {
			t.Fatal(err)
		}
		for v := range exact {
			if diff := math.Abs(exact[v] - warm.Estimates[v]); diff > 1e-6 {
				t.Fatalf("trial %d: PPR(%d,%d) warm %g vs exact %g (diff %g)",
					trial, s, v, warm.Estimates[v], exact[v], diff)
			}
		}
	}
}

func TestReverseUpdateForEditMatchesRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	sc := &UpdateScratch{}
	for trial := 0; trial < 10; trial++ {
		g := randomBidirGraph(rng, 10+rng.Intn(12), 15+rng.Intn(25))
		params := testParams()
		target := hin.NodeID(rng.Intn(g.NumNodes()))
		u := hin.NodeID(rng.Intn(g.NumNodes()))
		e := NewReversePush(params)
		base, err := e.Run(g, target)
		if err != nil {
			t.Fatal(err)
		}
		o := applyUserEdits(t, g, u, rng)
		warm, err := e.UpdateForEdit(context.Background(), g, o, base, []hin.NodeID{u}, sc)
		if err != nil {
			t.Fatal(err)
		}
		exact := exactReverseColumn(t, o, target)
		for v := range exact {
			if diff := math.Abs(exact[v] - warm.Estimates[v]); diff > 1e-6 {
				t.Fatalf("trial %d: PPR(%d,%d) warm %g vs exact %g (diff %g)",
					trial, v, target, warm.Estimates[v], exact[v], diff)
			}
		}
	}
}

func TestReverseUpdateForEditCSRFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	g := randomBidirGraph(rng, 25, 60)
	params := testParams()
	target := hin.NodeID(3)
	u := hin.NodeID(7)
	e := NewReversePush(params)
	oldCSR := hin.NewCSR(g)
	base, err := e.Run(oldCSR, target)
	if err != nil {
		t.Fatal(err)
	}
	o := applyUserEdits(t, g, u, rng)
	newCSR := hin.NewCSR(o)
	warm, err := e.UpdateForEdit(context.Background(), oldCSR, newCSR, base, []hin.NodeID{u}, nil)
	if err != nil {
		t.Fatal(err)
	}
	exact := exactReverseColumn(t, o, target)
	for v := range exact {
		if diff := math.Abs(exact[v] - warm.Estimates[v]); diff > 1e-6 {
			t.Fatalf("PPR(%d,%d) warm %g vs exact %g (diff %g)",
				v, target, warm.Estimates[v], exact[v], diff)
		}
	}
}

func TestUpdateForEditRejectsBadInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(87))
	g := randomBidirGraph(rng, 10, 20)
	e := NewForwardPush(testParams())
	base, err := e.Run(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	bigger := randomBidirGraph(rng, 11, 20)
	if _, err := e.UpdateForEdit(context.Background(), g, bigger, base, []hin.NodeID{0}, nil); err == nil {
		t.Error("node-count change accepted")
	}
	if _, err := e.UpdateForEdit(context.Background(), g, g, nil, []hin.NodeID{0}, nil); err == nil {
		t.Error("nil base accepted")
	}
	short := &PushResult{Estimates: make(Vector, 1), Residuals: make(Vector, 1)}
	if _, err := e.UpdateForEdit(context.Background(), g, g, short, []hin.NodeID{0}, nil); err == nil {
		t.Error("mis-sized base accepted")
	}
	if _, err := e.UpdateForEdit(context.Background(), g, g, base, []hin.NodeID{hin.NodeID(g.NumNodes())}, nil); err == nil {
		t.Error("out-of-range row accepted")
	}
}

func TestUpdateForEditCanceled(t *testing.T) {
	rng := rand.New(rand.NewSource(86))
	g := randomBidirGraph(rng, 30, 80)
	e := NewForwardPush(testParams())
	base, err := e.Run(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	o := applyUserEdits(t, g, 0, rng)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.UpdateForEdit(ctx, g, o, base, []hin.NodeID{0}, nil); err == nil {
		t.Error("canceled context accepted")
	}
}

// updateAllocs measures per-call allocations of a warm-started forward
// update with a shared scratch, alternating between two views so every
// call performs real repair work.
func updateAllocs(t *testing.T, nodes, extra int) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	g := randomBidirGraph(rng, nodes, extra)
	oldCSR := hin.NewCSR(g)
	o := applyUserEdits(t, g, 0, rng)
	newCSR := hin.NewCSR(o)
	e := NewForwardPush(DefaultParams())
	base, err := e.Run(oldCSR, 0)
	if err != nil {
		t.Fatal(err)
	}
	sc := &UpdateScratch{}
	ctx := context.Background()
	if _, err := e.UpdateForEdit(ctx, oldCSR, newCSR, base, []hin.NodeID{0}, sc); err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(50, func() {
		if _, err := e.UpdateForEdit(ctx, oldCSR, newCSR, base, []hin.NodeID{0}, sc); err != nil {
			t.Fatal(err)
		}
	})
}

// TestUpdateForEditAllocsConstant pins the warm-start path's allocation
// shape: with a warmed scratch, UpdateForEdit allocates only the result
// struct plus loop-closure bookkeeping — a small constant independent of
// graph size.
func TestUpdateForEditAllocsConstant(t *testing.T) {
	small := updateAllocs(t, 50, 100)
	large := updateAllocs(t, 2000, 8000)
	if small != large {
		t.Errorf("allocs per warm update: %.1f on 50 nodes vs %.1f on 2000 nodes; scratch is not being reused", small, large)
	}
	if small > 4 {
		t.Errorf("allocs per warm update = %.1f, want <= 4 (result struct + loop bookkeeping)", small)
	}
}

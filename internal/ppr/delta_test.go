package ppr

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/why-not-xai/emigre/internal/hin"
)

// applyUserEdits builds an overlay removing some of u's out-edges and
// adding new ones, returning it with a clone of g the same edits were
// applied to: the edited graph the overlay's row belongs to.
func applyUserEdits(t *testing.T, g *hin.Graph, u hin.NodeID, rng *rand.Rand) (*hin.Overlay, *hin.Graph) {
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
	ed := g.Clone()
	for _, e := range removals {
		if err := ed.RemoveEdge(e.From, e.To, e.Type); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range additions {
		if err := ed.AddEdge(e.From, e.To, e.Type, e.Weight); err != nil {
			t.Fatal(err)
		}
	}
	return o, ed
}

// toggleRow edits exactly node u's out-row of g in place: the first
// existing out-edge removed and one new edge added toward a
// non-neighbor. Applied to a clone, it stacks edits across rows.
func toggleRow(t *testing.T, g *hin.Graph, u hin.NodeID, rng *rand.Rand) {
	t.Helper()
	et, _ := g.Types().LookupEdgeType("e")
	if out := g.OutEdgesOfType(u, hin.NewEdgeTypeSet()); len(out) > 0 {
		if err := g.RemoveEdge(u, out[0].To, out[0].Type); err != nil {
			t.Fatal(err)
		}
	}
	for attempt := 0; attempt < g.NumNodes(); attempt++ {
		v := hin.NodeID(rng.Intn(g.NumNodes()))
		if _, ok := g.EdgeWeight(u, v, et); v != u && !ok {
			if err := g.AddEdge(u, v, et, rng.Float64()+0.3); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
}

// patchRow returns base with u's out-row replaced by u's row under o —
// the row-patched snapshot CHECK hands the engines for the
// counterfactual o.
func patchRow(base *hin.CSR, o *hin.Overlay, u hin.NodeID) *hin.CSR {
	row, sum := o.MixedRow(nil, u, 1)
	return base.WithOutRow(u, row, sum)
}

// TestPushShapesBitIdentical is the one equivalence test behind the
// single-shape kernels: a counterfactual presented as NewCSR of the
// edited graph or as the base snapshot with the edited row patched in
// must produce bit-identical estimates, residuals and push counts —
// forward cold and forward warm.
func TestPushShapesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	ctx := context.Background()
	same := func(t *testing.T, what string, want, got *PushResult) {
		t.Helper()
		if want.Pushes != got.Pushes {
			t.Fatalf("%s: %d pushes, want %d", what, got.Pushes, want.Pushes)
		}
		for v := range want.Estimates {
			if want.Estimates[v] != got.Estimates[v] || want.Residuals[v] != got.Residuals[v] {
				t.Fatalf("%s: node %d (p,r) = (%g,%g), want (%g,%g)", what, v,
					got.Estimates[v], got.Residuals[v], want.Estimates[v], want.Residuals[v])
			}
		}
	}
	for trial := 0; trial < 10; trial++ {
		g := randomBidirGraph(rng, 12+rng.Intn(20), 20+rng.Intn(40))
		s := hin.NodeID(rng.Intn(g.NumNodes()))
		u := hin.NodeID(rng.Intn(g.NumNodes()))
		o, ed := applyUserEdits(t, g, u, rng)
		base := hin.NewCSR(g)
		fwd := NewForwardPush(testParams())

		cold, err := fwd.RunContext(ctx, base, s)
		if err != nil {
			t.Fatal(err)
		}
		var want [2]*PushResult
		for i, view := range []*hin.CSR{hin.NewCSR(ed), patchRow(base, o, u)} {
			var got [2]*PushResult
			if got[0], err = fwd.RunContext(ctx, view, s); err != nil {
				t.Fatal(err)
			}
			// A nil scratch per call: warm results alias their scratch.
			if got[1], err = fwd.UpdateForEdit(ctx, base, view, cold, []hin.NodeID{u}, nil); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				want = got
				continue
			}
			for k, kernel := range []string{"forward cold", "forward warm"} {
				same(t, kernel+" over the row-patched snapshot", want[k], got[k])
			}
		}
	}
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
		old := hin.NewCSR(g)
		base, err := e.RunContext(context.Background(), old, s)
		if err != nil {
			t.Fatal(err)
		}
		_, ed := applyUserEdits(t, g, u, rng)
		o := hin.NewCSR(ed)
		warm, err := e.UpdateForEdit(context.Background(), old, o, base, []hin.NodeID{u}, sc)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := testPower(params).FromSource(o, s)
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
		again, err := e.RunContext(context.Background(), old, s)
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
		old := hin.NewCSR(g)
		base, err := e.RunContext(context.Background(), old, s)
		if err != nil {
			t.Fatal(err)
		}
		// Two edited rows of one clone; old -> new differs at u1 and u2.
		_, ed := applyUserEdits(t, g, u1, rng)
		toggleRow(t, ed, u2, rng)
		o2 := hin.NewCSR(ed)
		warm, err := e.UpdateForEdit(context.Background(), old, o2, base, []hin.NodeID{u1, u2}, nil)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := testPower(params).FromSource(o2, s)
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

func TestUpdateForEditRejectsBadInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(87))
	g := hin.NewCSR(randomBidirGraph(rng, 10, 20))
	e := NewForwardPush(testParams())
	base, err := e.RunContext(context.Background(), g, 0)
	if err != nil {
		t.Fatal(err)
	}
	bigger := hin.NewCSR(randomBidirGraph(rng, 11, 20))
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
	old := hin.NewCSR(g)
	e := NewForwardPush(testParams())
	base, err := e.RunContext(context.Background(), old, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, ed := applyUserEdits(t, g, 0, rng)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.UpdateForEdit(ctx, old, hin.NewCSR(ed), base, []hin.NodeID{0}, nil); err == nil {
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
	_, o := applyUserEdits(t, g, 0, rng)
	newCSR := hin.NewCSR(o)
	e := NewForwardPush(DefaultParams())
	base, err := e.RunContext(context.Background(), oldCSR, 0)
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

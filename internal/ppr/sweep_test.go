package ppr

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/why-not-xai/emigre/internal/fault"
	"github.com/why-not-xai/emigre/internal/hin"
	"github.com/why-not-xai/emigre/internal/obs"
)

// generalReverse returns a reverse engine whose every batch runs sweep's
// general body: the reference for the K = 1 and K = 2 bodies.
func generalReverse(p Params) *ReversePush { return &ReversePush{Params: p, general: true} }

// TestReverseBodiesMatchGeneral holds the dedicated K = 1 and K = 2
// bodies to the general body bit for bit — estimates, residuals and
// push counts — on graphs with a target nothing reaches (node 0), a
// dangling node (1), twin columns (2, 3), a dangling source (4) and
// duplicated targets.
func TestReverseBodiesMatchGeneral(t *testing.T) {
	for _, eps := range []float64{2.7e-8, 1e-4} {
		for seed := int64(1); seed <= 6; seed++ {
			for _, beta := range []float64{1, 0.5} {
				rng := rand.New(rand.NewSource(seed))
				nodes := 12 + rng.Intn(30)
				g := batchHIN(t, rng, nodes, beta)
				p := testParams()
				p.Epsilon = eps
				batches := [][]hin.NodeID{{0}, {1}, {2}, {4}, {hin.NodeID(rng.Intn(nodes))},
					{0, 1}, {2, 3}, {2, 2}, {4, 0}, {1, 4}}
				for range 4 {
					batches = append(batches, []hin.NodeID{hin.NodeID(rng.Intn(nodes)), hin.NodeID(rng.Intn(nodes))})
				}
				for _, ts := range batches {
					name := fmt.Sprintf("ε=%g seed %d β=%g targets %v", eps, seed, beta, ts)
					got, err := runMany(context.Background(), NewReversePush(p), g, ts)
					if err != nil {
						t.Fatal(err)
					}
					want, err := runMany(context.Background(), generalReverse(p), g, ts)
					if err != nil {
						t.Fatal(err)
					}
					for k := range ts {
						sameBits(t, name+" estimates", got[k].Estimates, want[k].Estimates)
						sameBits(t, name+" residuals", got[k].Residuals, want[k].Residuals)
						if got[k].Pushes != want[k].Pushes {
							t.Fatalf("%s slot %d: %d pushes, general body %d", name, k, got[k].Pushes, want[k].Pushes)
						}
					}
				}
			}
		}
	}
}

// sweepCase is one body of the two push kernels, run to completion over
// g from a fixed start.
type sweepCase struct {
	name string
	site *fault.Site
	run  func(ctx context.Context) error
}

// sweepCases lists every kernel body: the reverse K = 1, K = 2 and
// general bodies (the latter both at K = 3 and forced at K = 1), the
// cold forward run and the warm-started forward update.
func sweepCases(t *testing.T, g *hin.CSR) []sweepCase {
	t.Helper()
	p := testParams()
	reverse := func(e *ReversePush, ts ...hin.NodeID) func(context.Context) error {
		return func(ctx context.Context) error {
			_, err := e.ToTargets(ctx, g, ts)
			return err
		}
	}
	fwd := NewForwardPush(p)
	base, err := fwd.Run(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Row 3 loses its first out-edge: the warm start drains the repair.
	row := g.OutSlice(3)[1:]
	var sum float64
	for _, h := range row {
		sum += h.Weight
	}
	edited := g.WithOutRow(3, row, sum)
	return []sweepCase{
		{"reverse K=1", reverseLoopSite, reverse(NewReversePush(p), 3)},
		{"reverse K=2", reverseLoopSite, reverse(NewReversePush(p), 3, 1500)},
		{"reverse K=3", reverseLoopSite, reverse(NewReversePush(p), 3, 1500, 77)},
		{"reverse general K=1", reverseLoopSite, reverse(generalReverse(p), 3)},
		{"forward cold", forwardLoopSite, func(ctx context.Context) error {
			_, err := fwd.RunContext(ctx, g, 3)
			return err
		}},
		{"forward warm", updateLoopSite, func(ctx context.Context) error {
			_, err := fwd.UpdateForEdit(ctx, g, edited, base, []hin.NodeID{3}, nil)
			return err
		}},
	}
}

// armAtCtx arms site with one injected error from its at-th poll on, so
// the failpoint hit that follows that poll fires.
type armAtCtx struct {
	context.Context
	t     *testing.T
	site  string
	calls int
	at    int
}

func (c *armAtCtx) Err() error {
	if c.calls++; c.calls == c.at {
		if err := fault.Apply(c.site + "=error(boom)*1"); err != nil {
			c.t.Fatal(err)
		}
	}
	return nil
}

// TestSweepsPollMidDrain pins where every body can be interrupted: the
// context and the body's failpoint are consulted together once per
// ctxCheckInterval node visits of every sweep, and a cancellation or an
// injected error arriving in the middle of a sweep stops the drain at
// that very poll.
func TestSweepsPollMidDrain(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	nodes := 2*ctxCheckInterval + 100
	g := hin.NewCSR(randomBidirGraph(rng, nodes, 2*nodes))
	perSweep := (nodes + ctxCheckInterval - 1) / ctxCheckInterval
	t.Cleanup(fault.DisarmAll)
	for _, tc := range sweepCases(t, g) {
		if err := fault.Apply(tc.site.Name() + "=sleep(0s)"); err != nil { // armed, injects nothing: counts hits
			t.Fatal(err)
		}
		full := &pollCountingCtx{Context: context.Background()}
		before := tc.site.Hits()
		if err := tc.run(full); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if full.calls%perSweep != 0 || full.calls/perSweep < 2 {
			t.Fatalf("%s: %d polls over sweeps of %d nodes: want %d per sweep and at least two sweeps", tc.name, full.calls, nodes, perSweep)
		}
		if hits := tc.site.Hits() - before; hits != int64(full.calls) {
			t.Fatalf("%s: failpoint consulted %d times, context %d: they share one cadence", tc.name, hits, full.calls)
		}
		fault.DisarmAll()

		// Poll 2 is the middle of the first sweep, perSweep+2 the middle
		// of the second.
		for _, at := range []int{2, perSweep + 2} {
			mid := &pollCountingCtx{Context: context.Background(), cancelAt: at}
			if err := tc.run(mid); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: cancel at poll %d: err = %v, want context.Canceled", tc.name, at, err)
			}
			if mid.calls != at {
				t.Fatalf("%s: cancel at poll %d: the drain polled %d times, it must stop at the poll that saw it", tc.name, at, mid.calls)
			}
			armed := &armAtCtx{Context: context.Background(), t: t, site: tc.site.Name(), at: at}
			err := tc.run(armed)
			fault.DisarmAll()
			if !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("%s: failpoint armed at poll %d: err = %v, want an injected error", tc.name, at, err)
			}
			if armed.calls != at {
				t.Fatalf("%s: failpoint armed at poll %d: the drain polled %d times, it must stop at that poll's hit", tc.name, at, armed.calls)
			}
		}
	}
}

// TestSweepsRecordRunCounters pins that every body reports its runs:
// one run, its pushes and its residual mass per column (reverse) or per
// call (forward), whichever body drained it.
func TestSweepsRecordRunCounters(t *testing.T) {
	if !obs.Enabled() {
		t.Skip("metrics disabled")
	}
	rng := rand.New(rand.NewSource(11))
	g := batchHIN(t, rng, 40, 0.5)
	p := testParams()
	for _, tc := range []struct {
		name string
		e    *ReversePush
		ts   []hin.NodeID
	}{
		{"K=1", NewReversePush(p), []hin.NodeID{5}},
		{"K=2", NewReversePush(p), []hin.NodeID{5, 5}},
		{"K=3", NewReversePush(p), []hin.NodeID{0, 5, 9}},
		{"general K=1", generalReverse(p), []hin.NodeID{5}},
	} {
		runs0, pushes0 := runsReverse.Value(), pushesReverse.Value()
		mass0, sum0 := residualMassReverse.Count(), residualMassReverse.Sum()
		res, err := runMany(context.Background(), tc.e, g, tc.ts)
		if err != nil {
			t.Fatal(err)
		}
		var pushes int64
		var mass float64
		for _, r := range res {
			pushes += int64(r.Pushes)
			mass += r.Residuals.Sum()
		}
		K := int64(len(tc.ts))
		if got := runsReverse.Value() - runs0; got != K {
			t.Errorf("%s: %d reverse runs recorded, want %d", tc.name, got, K)
		}
		if got := pushesReverse.Value() - pushes0; got != pushes || pushes == 0 {
			t.Errorf("%s: %d reverse pushes recorded, the columns made %d", tc.name, got, pushes)
		}
		if got := residualMassReverse.Count() - mass0; got != K {
			t.Errorf("%s: %d residual-mass observations, want %d", tc.name, got, K)
		}
		if got := residualMassReverse.Sum() - sum0; math.Abs(got-mass) > 1e-12 {
			t.Errorf("%s: residual mass %g recorded, the columns left %g", tc.name, got, mass)
		}
	}

	fwd := NewForwardPush(p)
	for _, tc := range []struct {
		name         string
		runs, pushes *obs.Counter
		hist         *obs.Histogram
		run          func() (*PushResult, error)
	}{
		{"forward cold", runsForward, pushesForward, residualMassForward, func() (*PushResult, error) {
			return fwd.Run(g, 5)
		}},
		{"forward warm", runsForwardUpdate, pushesForwardUpdate, residualMassForwardUpdate, func() (*PushResult, error) {
			base, err := fwd.Run(g, 5)
			if err != nil {
				return nil, err
			}
			return fwd.UpdateForEdit(context.Background(), g, g.WithOutRow(5, nil, 0), base, []hin.NodeID{5}, nil)
		}},
	} {
		runs0, pushes0, obs0 := tc.runs.Value(), tc.pushes.Value(), tc.hist.Count()
		res, err := tc.run()
		if err != nil {
			t.Fatal(err)
		}
		if got := tc.runs.Value() - runs0; got != 1 {
			t.Errorf("%s: %d runs recorded, want 1", tc.name, got)
		}
		if got := tc.pushes.Value() - pushes0; got != int64(res.Pushes) || res.Pushes == 0 {
			t.Errorf("%s: %d pushes recorded, the run made %d", tc.name, got, res.Pushes)
		}
		if got := tc.hist.Count() - obs0; got != 1 {
			t.Errorf("%s: %d residual-mass observations, want 1", tc.name, got)
		}
	}
}

// TestForwardSweepDefinition checks the forward sweep against the
// definition, not against another push: after a cold run every residual
// lies in [0, ε], after a warm start every |residual| ≤ ε, and in both
// Eq. 3 reconstructs the exact PPR(s,·) from the estimates and the
// residuals to rounding.
func TestForwardSweepDefinition(t *testing.T) {
	for _, eps := range []float64{2.7e-8, 1e-4} {
		rng := rand.New(rand.NewSource(9))
		nodes := 40
		g := batchHIN(t, rng, nodes, 0.5)
		p := testParams()
		p.Epsilon = eps
		fwd := NewForwardPush(p)
		// u's row is rewritten: its first out-edge dropped, an edge to
		// node 0 (which has no in-edges) added.
		u := hin.NodeID(7)
		row := append([]hin.HalfEdge{{Node: 0, Weight: 0.7}}, g.OutSlice(u)[1:]...)
		var sum float64
		for _, h := range row {
			sum += h.Weight
		}
		edited := g.WithOutRow(u, row, sum)
		for _, s := range []hin.NodeID{0, 2, 4, u, 11} {
			cold, err := fwd.Run(g, s)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := fwd.UpdateForEdit(context.Background(), g, edited, cold, []hin.NodeID{u}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, step := range []struct {
				name   string
				view   hin.View
				res    *PushResult
				signed bool
			}{{"cold", g, cold, false}, {"warm", edited, warm, true}} {
				name := fmt.Sprintf("ε=%g %s from %d", eps, step.name, s)
				exact := NewExact(p)
				rows := make([]Vector, nodes) // rows[x] = PPR(x,·) on the view
				for x := range rows {
					if rows[x], err = exact.FromSource(step.view, hin.NodeID(x)); err != nil {
						t.Fatal(err)
					}
				}
				for x, r := range step.res.Residuals {
					if math.Abs(r) > eps || (!step.signed && r < 0) {
						t.Fatalf("%s: residual %g at node %d outside the bound", name, r, x)
					}
				}
				for tgt := 0; tgt < nodes; tgt++ {
					recon := step.res.Estimates[tgt]
					for x, r := range step.res.Residuals {
						recon += r * rows[x][tgt]
					}
					if diff := math.Abs(recon - rows[s][tgt]); diff > 1e-12 {
						t.Fatalf("%s: Eq. 3 at t=%d: %g reconstructed, %g exact", name, tgt, recon, rows[s][tgt])
					}
				}
			}
		}
	}
}

// TestColumnSumsBoundExact holds ColumnSums to the definition: on graphs
// with a dangling source, a node nothing reaches and β-mixed rows, every
// C(i) lies in [Σ_x PPR(x,i), Σ_x PPR(x,i) + columnSumSlack·α], the
// sums taken over ppr.Exact rows.
func TestColumnSumsBoundExact(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := batchHIN(t, rng, 30, []float64{1, 0.5}[seed%2])
		p := testParams()
		exact := NewExact(p)
		sums := make(Vector, g.NumNodes())
		for x := range sums {
			row, err := exact.FromSource(g, hin.NodeID(x))
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range row {
				sums[i] += v
			}
		}
		for i, c := range ColumnSums(g, p) {
			if c < sums[i]-1e-12 || c > sums[i]+columnSumSlack*p.Alpha+1e-12 {
				t.Fatalf("seed %d node %d: C = %g, exact column sum %g", seed, i, c, sums[i])
			}
		}
	}
}

// TestRunUntilStopsBetweenSweeps: the stop test is read after each sweep
// that pushed, never before the first; stopping leaves Eq. 3 intact with
// fewer pushes than the drain; a test that never stops drains exactly
// like RunContext; and the test costs the run no allocation.
func TestRunUntilStopsBetweenSweeps(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := batchHIN(t, rng, 40, 0.5)
	p := testParams()
	fwd := NewForwardPush(p)
	ctx := context.Background()
	full, err := fwd.RunContext(ctx, g, 7)
	if err != nil {
		t.Fatal(err)
	}
	never, err := fwd.RunUntil(ctx, g, 7, func(Vector, Vector) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if never.Pushes != full.Pushes || !slices.Equal(never.Estimates, full.Estimates) {
		t.Fatal("a stop test that never fires changed the drain")
	}
	calls := 0
	stopped, err := fwd.RunUntil(ctx, g, 7, func(Vector, Vector) bool { calls++; return calls == 3 })
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 || stopped.Pushes >= full.Pushes {
		t.Fatalf("stopped after %d tests at %d pushes, the drain takes %d", calls, stopped.Pushes, full.Pushes)
	}
	row, err := NewExact(p).FromSource(g, 7)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]Vector, g.NumNodes())
	for x := range rows {
		if rows[x], err = NewExact(p).FromSource(g, hin.NodeID(x)); err != nil {
			t.Fatal(err)
		}
	}
	for tgt := range row {
		recon := stopped.Estimates[tgt]
		for x, r := range stopped.Residuals {
			recon += r * rows[x][tgt]
		}
		if math.Abs(recon-row[tgt]) > 1e-12 {
			t.Fatalf("Eq. 3 at t=%d after a stop: %g reconstructed, %g exact", tgt, recon, row[tgt])
		}
	}
	stop := StopTest(func(Vector, Vector) bool { return false })
	base := testing.AllocsPerRun(20, func() { _, _ = fwd.RunContext(ctx, g, 7) })
	if got := testing.AllocsPerRun(20, func() { _, _ = fwd.RunUntil(ctx, g, 7, stop) }); got != base {
		t.Fatalf("a run with a stop test allocates %v times, without %v", got, base)
	}
}

package ppr

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/why-not-xai/emigre/internal/hin"
)

// refForward is the reference cold drain from s: the same sweeps, push
// rule, switches to ω = 1 and multiply-adds as the kernel, as a plain
// loop over OutSlice adding c·(w/Σw) to each out-neighbour, c = (1−α)·δ.
// It starts at relaxation omega — the kernel's is relaxation(α); omega
// = 1 is the plain drain — and also returns the work the drain made:
// the out-degrees of its pushes, summed, and the same padded.
func refForward(g *hin.CSR, p Params, s hin.NodeID, omega float64) (res *PushResult, updates refWork) {
	return refForwardWith(g, p, s, omega, func(c, w, total float64) float64 { return c * (w / total) })
}

// refForwardScale is refForward with the arithmetic of the unpadded
// loop the kernel replaced, (c/Σw)·w: the same bits as c·(w/Σw)
// wherever Σw = 1, as on every non-dangling row of a β-mixed snapshot with
// β < 1.
func refForwardScale(g *hin.CSR, p Params, s hin.NodeID, omega float64) (res *PushResult, updates refWork) {
	return refForwardWith(g, p, s, omega, func(c, w, total float64) float64 { return c / total * w })
}

// refForwardWith is the reference drain, spreading c = (1−α)·δ over an
// edge of weight w out of a row of sum total as spread(c, w, total).
func refForwardWith(g *hin.CSR, p Params, s hin.NodeID, omega float64, spread func(c, w, total float64) float64) (res *PushResult, updates refWork) {
	n := g.NumNodes()
	est, r := make(Vector, n), make(Vector, n)
	r[s] = 1
	pushes, bar, mass := 0, 2.0, math.Inf(1)
	for sweep := 1; ; sweep++ {
		var peak, pushed float64
		for v := range n {
			rv := r[v]
			if math.Abs(rv) <= p.Epsilon {
				continue
			}
			if peak = math.Max(peak, math.Abs(rv)); peak > bar {
				omega = 1
			}
			pushed += math.Abs(rv)
			delta := omega * rv
			r[v] = rv - delta
			est[v] += p.Alpha * delta
			pushes++
			total := g.OutWeightSum(hin.NodeID(v))
			if total <= 0 {
				continue
			}
			row := g.OutSlice(hin.NodeID(v))
			for _, h := range row {
				r[h.Node] += spread((1-p.Alpha)*delta, h.Weight, total)
			}
			updates.add(len(row))
		}
		if peak <= 0 {
			break
		}
		if pushed >= mass || sweep >= relaxedSweeps {
			omega = 1
		}
		bar, mass = 2*peak, pushed
	}
	return &PushResult{Estimates: est, Residuals: r, Pushes: pushes}, updates
}

// checkForwardWithin fails unless every |residual| of res is at most ε
// and every estimate lies within ε·C(t) of want on either side.
func checkForwardWithin(t *testing.T, what string, p Params, res *PushResult, want, sums Vector) {
	t.Helper()
	for x, r := range res.Residuals {
		if math.Abs(r) > p.Epsilon {
			t.Fatalf("%s: residual %g at node %d beyond ε", what, r, x)
		}
	}
	for x := range want {
		if diff := res.Estimates[x] - want[x]; math.Abs(diff) > p.ForwardErr(sums[x]) {
			t.Fatalf("%s: estimate − exact = %g at node %d, beyond ε·C = %g", what, diff, x, p.ForwardErr(sums[x]))
		}
	}
}

// TestForwardTerminatesWhereRelaxationDoesNot drains graphs on which ω*
// is not guaranteed to contract, at ε = 1e-12: directed cycles (both
// orientations: mass runs with the sweep, where unchecked ω* would grow
// it by (1−α)·ω* = 1.11 a hop inside one sweep, or against it, one hop a
// sweep, where the residuals ω* leaves behind never shrink and only the
// sweep-mass rule stops the drift), a chain whose end absorbs, and a
// cycle that leaks half of every step into a dangling sink. Every run
// must match the reference drain bit for bit, end with every |r| ≤ ε
// and lie within ε·C(t) of Power's. Pushes stay within 4× the plain
// (ω = 1) drain's, plus, for a residual nothing refills (the source of
// the chain), the ln ε / ln(ω*−1) pushes it takes to shrink by ω*−1 a
// push where ω = 1 clears it in one; the leaking cycle, the worst case
// on record (DESIGN.md §3.1), within 4× plain plus relaxedSweeps sweeps
// of every node.
func TestForwardTerminatesWhereRelaxationDoesNot(t *testing.T) {
	type shape struct {
		name     string
		n        int
		from, to []int
		leaks    bool
	}
	var shapes []shape
	for _, n := range []int{3, 7, 50, 501} {
		up, down := shape{name: fmt.Sprintf("cycle %d up", n), n: n}, shape{name: fmt.Sprintf("cycle %d down", n), n: n}
		for i := range n {
			up.from, up.to = append(up.from, i), append(up.to, (i+1)%n)
			down.from, down.to = append(down.from, (i+1)%n), append(down.to, i)
		}
		shapes = append(shapes, up, down)
	}
	chain, sink := shape{name: "chain 50", n: 50}, shape{name: "cycle 7 into a sink", n: 8, leaks: true}
	for i := range 49 {
		chain.from, chain.to = append(chain.from, i), append(chain.to, i+1)
	}
	for i := range 7 {
		sink.from, sink.to = append(sink.from, i, i), append(sink.to, (i+1)%7, 7)
	}
	shapes = append(shapes, chain, sink)

	p := testParams()
	p.Epsilon = 1e-12
	exact := NewPower(p)
	exact.Tol, exact.MaxIter = 1e-15, 5000
	e := NewForwardPush(p)
	settle := int(math.Ceil(math.Log(p.Epsilon) / math.Log(relaxation(p.Alpha)-1)))
	for _, sh := range shapes {
		g := edgeGraph(t, sh.n, sh.from, sh.to)
		sums := ColumnSums(g, p)
		for _, s := range []hin.NodeID{0, hin.NodeID(sh.n / 2), hin.NodeID(sh.n - 1)} {
			what := fmt.Sprintf("%s, source %d", sh.name, s)
			got, err := e.RunContext(context.Background(), g, s)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := refForward(g, p, s, relaxation(p.Alpha))
			sameRun(t, what, got, want)
			row, err := exact.FromSource(g, s)
			if err != nil {
				t.Fatal(err)
			}
			checkForwardWithin(t, what, p, got, row, sums)
			plain, _ := refForward(g, p, s, 1)
			bound := 4*plain.Pushes + settle
			if sh.leaks {
				bound = 4*plain.Pushes + relaxedSweeps*sh.n
			}
			t.Logf("%s: %d pushes, %d at ω = 1", what, got.Pushes, plain.Pushes)
			if got.Pushes > bound {
				t.Fatalf("%s: %d pushes, the plain drain %d: beyond %d", what, got.Pushes, plain.Pushes, bound)
			}
		}
	}
}

// TestForwardMatchesReference holds the kernel to the reference drain
// bit for bit — estimates, residuals and push counts — on graphs with a
// source nothing reaches (node 0), a dangling node (1) and twins (2, 3).
// The entry points that borrow their buffers,
// FromSourceContext and LendFromSource, must return the same estimates
// whatever drain of this or another graph's size used the buffers last.
func TestForwardMatchesReference(t *testing.T) {
	ctx := context.Background()
	for _, eps := range []float64{2.7e-8, 1e-4} {
		for seed := int64(1); seed <= 6; seed++ {
			for _, beta := range []float64{1, 0.5} {
				rng := rand.New(rand.NewSource(seed))
				nodes := 12 + rng.Intn(30)
				g := batchHIN(t, rng, nodes, beta)
				p := testParams()
				p.Epsilon = eps
				e := NewForwardPush(p)
				for _, s := range []hin.NodeID{0, 1, 2, 4, hin.NodeID(rng.Intn(nodes))} {
					got, err := e.RunContext(ctx, g, s)
					if err != nil {
						t.Fatal(err)
					}
					want, _ := refForward(g, p, s, relaxation(p.Alpha))
					what := fmt.Sprintf("ε=%g seed %d β=%g source %d", eps, seed, beta, s)
					sameRun(t, what, got, want)
					est, err := e.FromSourceContext(ctx, g, s)
					if err != nil {
						t.Fatal(err)
					}
					sameBits(t, what+" FromSourceContext", est, want.Estimates)
					if err := e.LendFromSource(ctx, g, s, func(lent Vector) {
						sameBits(t, what+" LendFromSource", lent, want.Estimates)
					}); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

// cyclicHIN builds a random directed graph of n nodes: random weighted
// edges, some nodes left dangling, and one directed cycle through a
// random subset of the nodes, in random orientation.
func cyclicHIN(t testing.TB, rng *rand.Rand, n int) *hin.Graph {
	t.Helper()
	g := hin.NewGraph()
	nt, et := g.Types().NodeType("n"), g.Types().EdgeType("e")
	for range n {
		g.AddNode(nt, "")
	}
	add := func(from, to int, w float64) {
		if _, dup := g.EdgeWeight(hin.NodeID(from), hin.NodeID(to), et); from != to && !dup {
			if err := g.AddEdge(hin.NodeID(from), hin.NodeID(to), et, w); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle := rng.Perm(n)[:2+rng.Intn(n-1)]
	for i, v := range cycle {
		add(v, cycle[(i+1)%len(cycle)], 0.5+rng.Float64())
	}
	for range rng.Intn(2 * n) {
		add(rng.Intn(n), rng.Intn(n), 0.1+rng.Float64())
	}
	return g
}

// FuzzForwardWithinEpsilon holds the forward contract on random small
// graphs with a directed cycle, flattened under a random β-mix
// (hin.NewMixedCSR, β in [0, 1]), and a random ε in [1e-10, 1e-2]:
// every |residual| ends at most ε and every estimate lies within ε·C(t)
// of ppr.Exact, C(t) the exact column sum. It drains both the snapshot
// and a WithOutRow patch of the source's β-mixed row under an overlay
// that rewires it (every edge dropped, some targets added at new
// weights; hin.Overlay.MixedRow), the latter held to Exact over the
// patched snapshot's rows: the path where the sweep pushes the patched
// row between two body calls.
func FuzzForwardWithinEpsilon(f *testing.F) {
	f.Add(int64(1), uint8(5), uint16(0), uint8(128))
	f.Add(int64(2), uint8(20), uint16(40000), uint8(255))
	f.Add(int64(3), uint8(2), uint16(65535), uint8(0))
	f.Add(int64(9), uint8(30), uint16(12345), uint8(64))
	f.Fuzz(func(t *testing.T, seed int64, size uint8, e uint16, b uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + int(size%30)
		raw := cyclicHIN(t, rng, n)
		beta := float64(b) / math.MaxUint8
		g := hin.NewMixedCSR(raw, beta)
		p := testParams()
		p.Epsilon = math.Pow(10, -10+8*float64(e)/math.MaxUint16)
		s := hin.NodeID(rng.Intn(n))
		et, _ := raw.Types().LookupEdgeType("e")
		var removals, additions []hin.Edge
		raw.OutEdges(s, func(h hin.HalfEdge) bool {
			removals = append(removals, hin.Edge{From: s, To: h.Node, Type: h.Type})
			return true
		})
		for y := range n {
			if y != int(s) && rng.Intn(3) == 0 {
				additions = append(additions, hin.Edge{From: s, To: hin.NodeID(y), Type: et, Weight: 0.1 + rng.Float64()})
			}
		}
		o, err := hin.NewOverlay(raw, removals, additions)
		if err != nil {
			t.Fatal(err)
		}
		row, sum := o.MixedRow(nil, s, beta)
		patched := g.WithOutRow(s, row, sum)
		for _, run := range []struct {
			name string
			g    *hin.CSR
		}{{"graph", g}, {"patched", patched}} {
			rows := make([]Vector, n)
			sums := make(Vector, n)
			for x := range rows {
				var err error
				if rows[x], err = NewExact(p).FromSource(run.g, hin.NodeID(x)); err != nil {
					t.Fatal(err)
				}
				for i, v := range rows[x] {
					sums[i] += v
				}
			}
			res, err := NewForwardPush(p).RunContext(context.Background(), run.g, s)
			if err != nil {
				t.Fatal(err)
			}
			checkForwardWithin(t, fmt.Sprintf("%s: %d nodes, ε=%g, β=%g, source %d", run.name, n, p.Epsilon, beta, s), p, res, rows[s], sums)
		}
	})
}

package ppr

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/why-not-xai/emigre/internal/fault"
	"github.com/why-not-xai/emigre/internal/hin"
)

// batchHIN builds a seeded directed graph with the shapes a blocked
// reverse drain has to get right: node 0 has no in-edges (a target
// nothing reaches), node 1 no out-edges (dangling: it absorbs), nodes 2
// and 3 are twins (same in- and out-rows, so their columns tie entry
// for entry). beta < 1 rewrites the weights to the recommender's β-mix.
func batchHIN(t testing.TB, rng *rand.Rand, nodes int, beta float64) *hin.CSR {
	t.Helper()
	g := hin.NewGraph()
	nt, et := g.Types().NodeType("n"), g.Types().EdgeType("e")
	for i := 0; i < nodes; i++ {
		g.AddNode(nt, "")
	}
	add := func(from, to int, w float64) {
		if _, dup := g.EdgeWeight(hin.NodeID(from), hin.NodeID(to), et); from == to || from == 1 || to == 0 || dup {
			return
		}
		if err := g.AddEdge(hin.NodeID(from), hin.NodeID(to), et, w); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4*nodes; i++ {
		from, to, w := rng.Intn(nodes), rng.Intn(nodes), rng.Float64()+0.1
		if from == 2 || from == 3 || to == 2 || to == 3 {
			continue // the twins' rows are written together below
		}
		add(from, to, w)
	}
	for i := 0; i < 6; i++ {
		x, w := 4+rng.Intn(nodes-4), rng.Float64()+0.1
		if i%2 == 0 {
			add(2, x, w)
			add(3, x, w)
		} else {
			add(x, 2, w)
			add(x, 3, w)
		}
	}
	add(0, 5, 1)
	add(5, 1, 1)
	add(4, 6, 1)

	view := g
	if beta < 1 {
		mixed := hin.NewGraph()
		mixed.Types().NodeType("n")
		mixed.Types().EdgeType("e")
		for i := 0; i < nodes; i++ {
			mixed.AddNode(nt, "")
		}
		for v := 0; v < nodes; v++ {
			total, deg := g.OutWeightSum(hin.NodeID(v)), float64(g.OutDegree(hin.NodeID(v)))
			g.OutEdges(hin.NodeID(v), func(h hin.HalfEdge) bool {
				if err := mixed.AddEdge(hin.NodeID(v), h.Node, et, beta*h.Weight/total+(1-beta)/deg); err != nil {
					t.Fatal(err)
				}
				return true
			})
		}
		view = mixed
	}
	return hin.NewCSR(view)
}

// sameBits fails unless a and b agree bit for bit.
func sameBits(t *testing.T, what string, a, b Vector) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: entry %d is %v, want %v", what, i, a[i], b[i])
		}
	}
}

// runMany drains ts as ToTargets does, through the same grouping and
// bodies, and returns the full push state of every column.
func runMany(ctx context.Context, e *ReversePush, g *hin.CSR, ts []hin.NodeID) ([]*PushResult, error) {
	if len(ts) == 0 {
		return nil, nil
	}
	d, err := e.drain(g, ts)
	if err != nil {
		return nil, err
	}
	out := make([]*PushResult, len(ts))
	if err := d.columns(ctx, ts, make([]Vector, len(ts)), out); err != nil {
		return nil, err
	}
	return out, nil
}

// refReverse is the reference drain the kernel is held to bit for bit:
// the same sweeps, push rule, switch to ω = 1 and multiply-adds, as a
// bounds-checked loop over unpadded in-rows gathered from the out-rows
// (so in ascending source order, the CSR's) with the transition probability
// w/Σw(src), 0 for a source whose weight sum is not positive. It starts
// at relaxation omega — the kernel's is relaxation(α); omega = 1 is the
// plain drain — and also returns the work the drain made: the in-degrees
// of its pushes, summed, and the same padded to hin.InLanes.
func refReverse(g *hin.CSR, p Params, t hin.NodeID, omega float64) (res *PushResult, updates refWork) {
	n := g.NumNodes()
	start := make([]int, n+1)
	var src []hin.NodeID
	var prob []float64
	type lane struct {
		src  hin.NodeID
		prob float64
	}
	in := make([][]lane, n)
	for s := range hin.NodeID(n) {
		sum := g.OutWeightSum(s)
		for _, h := range g.OutSlice(s) {
			w := 0.0
			if sum > 0 {
				w = h.Weight / sum
			}
			in[h.Node] = append(in[h.Node], lane{s, w})
		}
	}
	for v := range n {
		for _, l := range in[v] {
			src, prob = append(src, l.src), append(prob, l.prob)
		}
		start[v+1] = len(src)
	}
	est, r := make(Vector, n), make(Vector, n)
	r[t] = 1
	pushes, bar := 0, (1-p.Alpha)*omega
	for sweep := 1; ; sweep++ {
		peak := 0.0
		for v := range n {
			rv := r[v]
			if math.Abs(rv) <= p.Epsilon {
				continue
			}
			if peak = math.Max(peak, math.Abs(rv)); peak > bar {
				omega = 1
			}
			delta := omega * rv
			r[v] = rv - delta
			est[v] += p.Alpha * delta
			pushes++
			c := (1 - p.Alpha) * delta
			for i := start[v]; i < start[v+1]; i++ {
				r[src[i]] += c * prob[i]
			}
			updates.add(start[v+1] - start[v])
		}
		if peak <= 0 { // nothing pushed
			break
		}
		if sweep >= relaxedSweeps {
			omega = 1
		}
		bar = peak
	}
	return &PushResult{Estimates: est, Residuals: r, Pushes: pushes}, updates
}

// refWork is a reference drain's row work: the real edges its pushes
// walked and the lanes they span once each row is padded to a multiple
// of hin.InLanes, as the kernel walks them.
type refWork struct{ Edges, Lanes int }

// add counts one push over a row of deg edges.
func (w *refWork) add(deg int) {
	w.Edges += deg
	w.Lanes += (deg + hin.InLanes - 1) / hin.InLanes * hin.InLanes
}

// sameRun fails unless got and want agree bit for bit on estimates and
// residuals and exactly on Pushes.
func sameRun(t *testing.T, what string, got, want *PushResult) {
	t.Helper()
	sameBits(t, what+" estimates", got.Estimates, want.Estimates)
	sameBits(t, what+" residuals", got.Residuals, want.Residuals)
	if got.Pushes != want.Pushes {
		t.Fatalf("%s: %d pushes, the reference drain %d", what, got.Pushes, want.Pushes)
	}
}

// checkReference holds every column of a batch over ts, and its single
// Run, to the reference drain, and checks the drain's end state: every
// |residual| ≤ ε.
func checkReference(t *testing.T, what string, e *ReversePush, g *hin.CSR, ts []hin.NodeID) {
	t.Helper()
	many, err := runMany(context.Background(), e, g, ts)
	if err != nil {
		t.Fatal(err)
	}
	for k, tgt := range ts {
		want, _ := refReverse(g, e.Params, tgt, relaxation(e.Params.Alpha))
		sameRun(t, fmt.Sprintf("%s slot %d (target %d)", what, k, tgt), many[k], want)
		for x, r := range many[k].Residuals {
			if math.Abs(r) > e.Params.Epsilon {
				t.Fatalf("%s target %d: residual %g at node %d beyond ε", what, tgt, r, x)
			}
		}
		single, err := e.RunContext(context.Background(), g, tgt)
		if err != nil {
			t.Fatal(err)
		}
		sameRun(t, fmt.Sprintf("%s Run(%d)", what, tgt), single, want)
	}
}

// TestReverseMatchesReference holds the padded kernel to the reference
// drain bit for bit — estimates, residuals and push counts — on graphs
// with a target nothing reaches (node 0), a dangling node (1), twin
// columns (2, 3) and duplicated targets.
func TestReverseMatchesReference(t *testing.T) {
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
					checkReference(t, fmt.Sprintf("ε=%g seed %d β=%g targets %v", eps, seed, beta, ts), NewReversePush(p), g, ts)
				}
			}
		}
	}
}

// checkBatchIndependence asserts runMany(ts)[k] == Run(ts[k]) bit for
// bit, Pushes included, for every k.
func checkBatchIndependence(t *testing.T, e *ReversePush, g *hin.CSR, ts []hin.NodeID) {
	t.Helper()
	many, err := runMany(context.Background(), e, g, ts)
	if err != nil {
		t.Fatal(err)
	}
	if len(many) != len(ts) {
		t.Fatalf("runMany returned %d results for %d targets", len(many), len(ts))
	}
	ests, err := e.ToTargets(context.Background(), g, ts)
	if err != nil {
		t.Fatal(err)
	}
	// The same batch again into recycled, dirty vectors: each is written
	// in place and ends bit for bit the fresh column.
	into := make([]Vector, len(ts))
	for k := range into {
		into[k] = make(Vector, g.NumNodes())
		for x := range into[k] {
			into[k][x] = math.NaN()
		}
	}
	recycled := slices.Clone(into)
	if err := e.ToTargetsInto(context.Background(), g, ts, into); err != nil {
		t.Fatal(err)
	}
	for k := range ts {
		if &into[k][0] != &recycled[k][0] {
			t.Fatalf("slot %d of %v: ToTargetsInto did not write the recycled vector", k, ts)
		}
		sameBits(t, "ToTargetsInto", into[k], ests[k])
	}
	for k, tgt := range ts {
		single, err := e.RunContext(context.Background(), g, tgt)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "estimates", many[k].Estimates, single.Estimates)
		sameBits(t, "residuals", many[k].Residuals, single.Residuals)
		sameBits(t, "ToTargets", ests[k], single.Estimates)
		if many[k].Pushes != single.Pushes {
			t.Fatalf("target %d (slot %d of %v): %d pushes in the batch, %d alone", tgt, k, ts, many[k].Pushes, single.Pushes)
		}
	}
}

// TestReverseBatchIndependence is the contract that lets a cached
// column be shared: whatever else is drained in the same pass, in
// whatever slot and however often duplicated, a column comes out bit
// for bit as its single run does.
func TestReverseBatchIndependence(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		for _, beta := range []float64{1, 0.5} {
			rng := rand.New(rand.NewSource(seed))
			nodes := 12 + rng.Intn(30)
			g := batchHIN(t, rng, nodes, beta)
			e := NewReversePush(testParams())
			for _, K := range []int{1, 2, 3, 7, 10} {
				// The special nodes first, then random targets drawn with
				// replacement (duplicates), then the whole batch shuffled.
				ts := []hin.NodeID{0, 1, 2, 3, 4, 2}[:min(K, 6)]
				for len(ts) < K {
					ts = append(ts, hin.NodeID(rng.Intn(nodes)))
				}
				checkBatchIndependence(t, e, g, ts)
				rng.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
				checkBatchIndependence(t, e, g, ts)
			}

		}
	}
}

// TestReverseNoTargetsTouchNothing: a batch of no targets returns
// nothing and reads neither its context, its view nor its parameters.
func TestReverseNoTargetsTouchNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	runs := runsReverse.Value()
	cols, err := (&ReversePush{}).ToTargets(ctx, nil, nil)
	if cols != nil || err != nil {
		t.Fatalf("a batch of no targets = %v, %v; want nil, nil", cols, err)
	}
	if runsReverse.Value() != runs {
		t.Fatal("a batch of no targets recorded a run")
	}
}

// TestReversePushRefusesRowPatch: a row-patched snapshot's in-rows are
// its base's, so every reverse entry point refuses it with an error
// rather than drain the base graph's column for a counterfactual.
func TestReversePushRefusesRowPatch(t *testing.T) {
	g := batchHIN(t, rand.New(rand.NewSource(5)), 20, 1)
	p := g.WithOutRow(7, nil, 0)
	e := NewReversePush(testParams())
	ctx := context.Background()
	if _, err := e.RunContext(ctx, p, 3); !errors.Is(err, errPatchedSnapshot) {
		t.Errorf("RunContext over a row-patched snapshot: err = %v, want errPatchedSnapshot", err)
	}
	if _, err := e.ToTargets(ctx, p, []hin.NodeID{3, 9}); !errors.Is(err, errPatchedSnapshot) {
		t.Errorf("ToTargets over a row-patched snapshot: err = %v, want errPatchedSnapshot", err)
	}
	if _, err := e.ToTargets(ctx, g, []hin.NodeID{3, 9}); err != nil {
		t.Errorf("ToTargets over the unpatched base: %v", err)
	}
}

// FuzzReverseBatchIndependence drives the same contract, the reference
// drain's and the drain's end state — every |residual| ≤ ε — from fuzz
// input: 8 seed bytes pick the graph, then one byte each for K, β and ε.
// K < 17 covers a full 8-lane pass plus a split tail (8 + 8, 8 + 4, 8 +
// a lone column) where the CPU runs body8.
// Seeds — and any crasher a fuzz run finds — live under testdata/fuzz.
func FuzzReverseBatchIndependence(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 2, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 42, 10, 1, 1})
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 7, 7, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 11 {
			t.Skip("need 8 seed bytes + K, β and ε bytes")
		}
		rng := rand.New(rand.NewSource(int64(binary.BigEndian.Uint64(data[:8]))))
		nodes := 8 + rng.Intn(24)
		g := batchHIN(t, rng, nodes, []float64{1, 0.5}[data[9]%2])
		p := testParams()
		p.Epsilon = []float64{2.7e-8, 1e-4, 1e-9}[data[10]%3]
		ts := make([]hin.NodeID, int(data[8]%17))
		for k := range ts {
			ts[k] = hin.NodeID(rng.Intn(nodes))
		}
		checkBatchIndependence(t, NewReversePush(p), g, ts)
		checkReference(t, fmt.Sprintf("targets %v", ts), NewReversePush(p), g, ts)
	})
}

// TestReverseBatchDefinition checks a batch against the definition, not
// against another push: every terminal |residual| is at most ε, and
// Eq. 4 leaves each estimate within ε·Σ_x PPR(s,x) ≤ ε of the exact
// PPR(s,t), on either side.
func TestReverseBatchDefinition(t *testing.T) {
	for _, eps := range []float64{2.7e-8, 1e-4} {
		rng := rand.New(rand.NewSource(9))
		nodes := 40
		g := batchHIN(t, rng, nodes, 0.5)
		p := testParams()
		p.Epsilon = eps
		ts := []hin.NodeID{0, 1, 2, 3, 4, 9, 17, 30}
		res, err := runMany(context.Background(), NewReversePush(p), g, ts)
		if err != nil {
			t.Fatal(err)
		}
		exact := NewExact(p)
		for s := 0; s < nodes; s++ {
			row, err := exact.FromSource(g, hin.NodeID(s))
			if err != nil {
				t.Fatal(err)
			}
			for k, tgt := range ts {
				if r := res[k].Residuals[s]; math.Abs(r) > eps {
					t.Fatalf("ε=%g: residual %g at node %d of column %d outside [−ε, ε]", eps, r, s, tgt)
				}
				recon := res[k].Estimates[s]
				for x, r := range res[k].Residuals {
					recon += row[x] * r
				}
				if diff := math.Abs(recon - row[tgt]); diff > 1e-12 {
					t.Fatalf("ε=%g: Eq. 4 at (%d,%d): %g reconstructed, %g exact", eps, s, tgt, recon, row[tgt])
				}
				if gap := row[tgt] - res[k].Estimates[s]; math.Abs(gap) > eps+1e-12 {
					t.Fatalf("ε=%g: PPR(%d,%d) − estimate = %g, want within [−ε, ε]", eps, s, tgt, gap)
				}
			}
		}
	}
}

// edgeGraph builds a graph of n nodes and unit-weight edges from[i] ->
// to[i].
func edgeGraph(t *testing.T, n int, from, to []int) *hin.CSR {
	t.Helper()
	g := hin.NewGraph()
	nt, et := g.Types().NodeType("n"), g.Types().EdgeType("e")
	for range n {
		g.AddNode(nt, "")
	}
	for i := range from {
		if err := g.AddEdge(hin.NodeID(from[i]), hin.NodeID(to[i]), et, 1); err != nil {
			t.Fatal(err)
		}
	}
	return hin.NewCSR(g)
}

// TestReverseTerminatesWhereRelaxationDoesNot drains graphs on which ω*
// is not guaranteed to contract, at ε = 1e-12: directed cycles, whose
// every node has a single in-edge of weight 1 (both orientations: mass
// runs against the sweep, one hop a sweep, or with it, where unchecked
// ω* would grow it by (1−α)·ω* = 1.11 a hop), a chain whose end absorbs,
// and a cycle that leaks half of every step into a dangling sink. Every
// column must match the reference drain bit for bit, end with every
// |r| ≤ ε and lie within ε of Power's. Pushes stay within 4× the plain
// (ω = 1) drain's, plus, for a residual no in-edge refills (the chain's
// head), the ln ε / ln(ω*−1) pushes it takes to shrink by ω*−1 a push
// where ω = 1 clears it in one. The leaking cycle is the worst case on record
// (DESIGN.md §3.1): its radius is (1−α)/2, not the 1−α ω* is tuned to,
// so ω* leaves a residual on every node it passes while the plain drain
// holds one at a time, and only the sweep cap bounds its ω* phase, at
// relaxedSweeps sweeps of every node.
func TestReverseTerminatesWhereRelaxationDoesNot(t *testing.T) {
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
	e := NewReversePush(p)
	settle := int(math.Ceil(math.Log(p.Epsilon) / math.Log(relaxation(p.Alpha)-1)))
	for _, sh := range shapes {
		g := edgeGraph(t, sh.n, sh.from, sh.to)
		for _, tgt := range []hin.NodeID{0, hin.NodeID(sh.n / 2), hin.NodeID(sh.n - 1)} {
			what := fmt.Sprintf("%s, target %d", sh.name, tgt)
			checkReference(t, what, e, g, []hin.NodeID{tgt})
			got, err := e.RunContext(context.Background(), g, tgt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := exact.ToTarget(g, tgt)
			if err != nil {
				t.Fatal(err)
			}
			for x := range want {
				if diff := got.Estimates[x] - want[x]; math.Abs(diff) > p.Epsilon {
					t.Fatalf("%s: estimate − Power = %g at node %d, beyond ε", what, diff, x)
				}
			}
			plain, _ := refReverse(g, p, tgt, 1)
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

// pollCountingCtx counts Err calls and reports cancellation from the
// cancelAt-th on (0: never).
type pollCountingCtx struct {
	context.Context
	calls, cancelAt int
}

func (c *pollCountingCtx) Err() error {
	c.calls++
	if c.cancelAt > 0 && c.calls >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// TestReverseBatchPollCadence pins where a batch can be interrupted:
// the context and the ppr.reverse.loop failpoint are consulted together
// once per ctxCheckInterval node visits of every sweep, a cancellation
// or an injected error arriving mid-batch stops the drain at that very
// poll, and nothing is returned.
func TestReverseBatchPollCadence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	nodes := 2*ctxCheckInterval + 100
	g := hin.NewCSR(randomBidirGraph(rng, nodes, 2*nodes))
	e := NewReversePush(testParams())
	ts := []hin.NodeID{3, 1500, 77, 2100}
	perSweep := (nodes + ctxCheckInterval - 1) / ctxCheckInterval

	t.Cleanup(fault.DisarmAll)
	if err := fault.Apply("ppr.reverse.loop=sleep(0s)"); err != nil { // armed, injects nothing: counts hits
		t.Fatal(err)
	}
	full := &pollCountingCtx{Context: context.Background()}
	before := reverseLoopSite.Hits()
	if _, err := e.ToTargets(full, g, ts); err != nil {
		t.Fatal(err)
	}
	if full.calls%perSweep != 0 || full.calls/perSweep < 2 {
		t.Fatalf("%d polls over sweeps of %d nodes: want %d per sweep and at least two sweeps", full.calls, nodes, perSweep)
	}
	if hits := reverseLoopSite.Hits() - before; hits != int64(full.calls) {
		t.Fatalf("failpoint consulted %d times, context %d: they share one cadence", hits, full.calls)
	}
	fault.DisarmAll()

	for _, at := range []int{1, perSweep + 2, full.calls} {
		mid := &pollCountingCtx{Context: context.Background(), cancelAt: at}
		cols, err := e.ToTargets(mid, g, ts)
		if !errors.Is(err, context.Canceled) || cols != nil {
			t.Fatalf("cancel at poll %d: cols=%v err=%v, want nil and context.Canceled", at, cols != nil, err)
		}
		if mid.calls != at {
			t.Fatalf("cancel at poll %d: the drain polled %d times, it must stop at the poll that saw it", at, mid.calls)
		}
	}

	// An error injected on a later hit surfaces from the middle of the
	// batch (the first hit is let through by the seeded coin).
	fault.SetSeed(3)
	if err := fault.Apply("ppr.reverse.loop=error(boom)%0.2"); err != nil {
		t.Fatal(err)
	}
	before = reverseLoopSite.Hits()
	res, err := runMany(context.Background(), e, g, ts)
	if !errors.Is(err, fault.ErrInjected) || res != nil {
		t.Fatalf("armed failpoint: res=%v err=%v, want nil and an injected error", res != nil, err)
	}
	if hits := reverseLoopSite.Hits() - before; hits < 2 || hits >= int64(full.calls) {
		t.Fatalf("failpoint fired on hit %d of %d: want mid-batch", hits, full.calls)
	}
}

// reverseAllocs measures allocations per ToTargets batch of K columns,
// or per ToTargetsInto batch into recycled vectors.
func reverseAllocs(t *testing.T, nodes, extra, K int, recycled bool) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	csr := hin.NewCSR(randomBidirGraph(rng, nodes, extra))
	e := NewReversePush(DefaultParams())
	ts := make([]hin.NodeID, K)
	cols := make([]Vector, K)
	for k := range ts {
		ts[k], cols[k] = hin.NodeID(k*3), make(Vector, nodes)
	}
	return testing.AllocsPerRun(20, func() {
		var err error
		if recycled {
			err = e.ToTargetsInto(context.Background(), csr, ts, cols)
		} else {
			_, err = e.ToTargets(context.Background(), csr, ts)
		}
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestReversePushAllocs pins the kernel's allocation shape: a batch
// allocates one estimate vector per column and the result slice — its
// residual vector is borrowed — and nothing per push, so the count does
// not move with the graph and grows by one per column, whichever passes
// (8-lane, 4-lane, lone) the batch splits into. Into recycled vectors
// it allocates nothing.
func TestReversePushAllocs(t *testing.T) {
	for _, K := range []int{1, 2, 5, 8, 9, 10, 12, 13, 16} {
		small, large := reverseAllocs(t, 50, 100, K, false), reverseAllocs(t, 2000, 8000, K, false)
		if small != large {
			t.Errorf("K=%d: %.1f allocs on 50 nodes vs %.1f on 2000; the sweep is allocating per push", K, small, large)
		}
		if small > float64(K+1) {
			t.Errorf("K=%d: %.1f allocs per batch, want at most K+1", K, small)
		}
		if into := reverseAllocs(t, 2000, 8000, K, true); into != 0 {
			t.Errorf("K=%d: %.1f allocs per batch into recycled vectors, want 0", K, into)
		}
	}
}

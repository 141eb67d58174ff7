package ppr

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/why-not-xai/emigre/internal/fault"
	"github.com/why-not-xai/emigre/internal/hin"
)

// batchHIN builds a seeded directed graph with the shapes a blocked
// reverse drain has to get right: node 0 has no in-edges (a target
// nothing reaches), node 1 no out-edges (dangling: it absorbs), nodes 2
// and 3 are twins (same in- and out-rows, so their columns tie entry
// for entry), and node 4 keeps its out-row under a zero weight sum — a
// dangling *source*, whose in-edges carry transition probability 0.
// beta < 1 rewrites the weights to the recommender's β-mix.
func batchHIN(t testing.TB, rng *rand.Rand, nodes int, beta float64) *hin.CSR {
	t.Helper()
	g := hin.NewGraph()
	nt, et := g.Types().NodeType("n"), g.Types().EdgeType("e")
	for i := 0; i < nodes; i++ {
		g.AddNode(nt, "")
	}
	add := func(from, to int, w float64) {
		if from == to || from == 1 || to == 0 || g.HasEdge(hin.NodeID(from), hin.NodeID(to)) {
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

	var view hin.View = g
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
	flat := hin.NewCSR(view)
	return hin.NewCSR(flat.WithOutRow(4, flat.OutSlice(4), 0))
}

// sameBits fails unless a and b agree bit for bit.
func sameBits(t *testing.T, what string, a, b Vector) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: entry %d is %v in the batch, %v alone", what, i, a[i], b[i])
		}
	}
}

// runMany drains ts in one batch and returns the full push state of
// every column: the kernel's interleaved residuals split per column.
func runMany(ctx context.Context, e *ReversePush, g hin.View, ts []hin.NodeID) ([]*PushResult, error) {
	p, r, pushes, err := e.sweep(ctx, g, ts)
	if err != nil {
		return nil, err
	}
	out := make([]*PushResult, len(ts))
	for k := range out {
		out[k] = &PushResult{Estimates: p[k], Residuals: make(Vector, len(p[k])), Pushes: pushes[k]}
		for v := range p[k] {
			out[k].Residuals[v] = r[v*len(ts)+k]
		}
	}
	return out, nil
}

// checkBatchIndependence asserts runMany(ts)[k] == Run(ts[k]) bit for
// bit, Pushes included, for every k.
func checkBatchIndependence(t *testing.T, e *ReversePush, g hin.View, ts []hin.NodeID) {
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
	for k, tgt := range ts {
		single, err := e.Run(g, tgt)
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
			if res, err := runMany(context.Background(), e, g, nil); err != nil || len(res) != 0 {
				t.Fatalf("a batch of no targets = %v, %v; want empty, nil", res, err)
			}
		}
	}
}

// FuzzReverseBatchIndependence drives the same contract from fuzz
// input: 8 seed bytes pick the graph, then one byte each for K, β and
// ε. Seeds — and any crasher a fuzz run finds — live under testdata/fuzz.
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
		ts := make([]hin.NodeID, int(data[8]%12))
		for k := range ts {
			ts[k] = hin.NodeID(rng.Intn(nodes))
		}
		checkBatchIndependence(t, NewReversePush(p), g, ts)
	})
}

// TestReverseBatchDefinition checks a batch against the definition, not
// against another push: every terminal residual lies in [0, ε], and
// Eq. 4 leaves each estimate at most ε·Σ_x PPR(s,x) ≤ ε below the exact
// PPR(s,t) and never above it.
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
				if r := res[k].Residuals[s]; r < 0 || r > eps {
					t.Fatalf("ε=%g: residual %g at node %d of column %d outside [0, ε]", eps, r, s, tgt)
				}
				recon := res[k].Estimates[s]
				for x, r := range res[k].Residuals {
					recon += row[x] * r
				}
				if diff := math.Abs(recon - row[tgt]); diff > 1e-12 {
					t.Fatalf("ε=%g: Eq. 4 at (%d,%d): %g reconstructed, %g exact", eps, s, tgt, recon, row[tgt])
				}
				if gap := row[tgt] - res[k].Estimates[s]; gap < -1e-12 || gap > eps+1e-12 {
					t.Fatalf("ε=%g: PPR(%d,%d) − estimate = %g, want within [0, ε]", eps, s, tgt, gap)
				}
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

// reverseAllocs measures allocations per blocked drain of K columns.
func reverseAllocs(t *testing.T, nodes, extra, K int) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	csr := hin.NewCSR(randomBidirGraph(rng, nodes, extra))
	e := NewReversePush(DefaultParams())
	ts := make([]hin.NodeID, K)
	for k := range ts {
		ts[k] = hin.NodeID(k * 3)
	}
	return testing.AllocsPerRun(20, func() {
		if _, err := e.ToTargets(context.Background(), csr, ts); err != nil {
			t.Fatal(err)
		}
	})
}

// TestReversePushAllocs pins the kernel's allocation shape: a batch
// allocates its set-up buffers — one estimate vector per column plus a
// fixed handful (interleaved residuals, coefficients, push counts, the
// result slice) — and nothing per push, so the count does not move
// with the graph and grows by one per column.
func TestReversePushAllocs(t *testing.T) {
	for _, K := range []int{1, 10} {
		small, large := reverseAllocs(t, 50, 100, K), reverseAllocs(t, 2000, 8000, K)
		if small != large {
			t.Errorf("K=%d: %.1f allocs on 50 nodes vs %.1f on 2000; the sweep is allocating per push", K, small, large)
		}
		if small > float64(K+6) {
			t.Errorf("K=%d: %.1f allocs per batch, want at most K+6", K, small)
		}
	}
}

package ppr_test

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"github.com/why-not-xai/emigre/internal/dataset"
	"github.com/why-not-xai/emigre/internal/hin"
	"github.com/why-not-xai/emigre/internal/ppr"
	"github.com/why-not-xai/emigre/internal/rec"
)

// lite is the Amazon Lite graph as the server pushes over it — the
// recommender's flat snapshot under its default configuration (β = 0.5,
// α = 0.15, ε = 2.7e-8) — with the first 50 sampled users and one
// Why-Not item for each: rank 2 to 10 of the user's top-10, in turn.
var lite struct {
	once         sync.Once
	g            *hin.CSR
	p            ppr.Params
	users, items []hin.NodeID
	rec          *rec.Recommender
	raw          *hin.Graph
	err          error
}

func liteGraph(tb testing.TB) (g *hin.CSR, p ppr.Params, users, items []hin.NodeID) {
	tb.Helper()
	lite.once.Do(func() {
		amazon, err := dataset.Generate(dataset.DefaultConfig())
		if err != nil {
			lite.err = err
			return
		}
		ds, sampled, err := amazon.Lite(dataset.DefaultLiteConfig())
		if err != nil {
			lite.err = err
			return
		}
		cfg := rec.DefaultConfig(ds.Types.Item)
		r, err := rec.New(ds.Graph, cfg)
		if err != nil {
			lite.err = err
			return
		}
		lite.g, lite.p, lite.rec, lite.raw = r.Flat(), cfg.PPR, r, ds.Graph
		for _, u := range sampled {
			list, err := r.TopN(u, 10)
			if err != nil {
				lite.err = err
				return
			}
			if len(list) < 10 {
				continue
			}
			lite.users = append(lite.users, u)
			lite.items = append(lite.items, list[1+len(lite.items)%9].Node)
			if len(lite.users) == 50 {
				return
			}
		}
		lite.err = fmt.Errorf("%d sampled users with a top-10, want 50", len(lite.users))
	})
	if lite.err != nil {
		tb.Fatalf("building Amazon Lite: %v", lite.err)
	}
	return lite.g, lite.p, lite.users, lite.items
}

// batchSizes are the batch sizes the Lite tests drain: every way
// columns splits a batch into passes — a lone column, a 4-lane group of
// two to four, an 8-lane group of five to eight, and the tails of 8 + 1
// to 8 + 4 and 8 + 8 where the CPU runs body8.
var batchSizes = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 16}

// batches cuts one batch of each of batchSizes out of ts, in turn, each
// starting where the last one ended and wrapping round past ts' end, so
// that (the sizes summing past len(ts)) every target of ts lies in one.
func batches(ts []hin.NodeID) [][]hin.NodeID {
	var out [][]hin.NodeID
	at := 0
	for _, k := range batchSizes {
		batch := make([]hin.NodeID, k)
		for i := range batch {
			batch[i] = ts[(at+i)%len(ts)]
		}
		out = append(out, batch)
		at += k
	}
	return out
}

// TestReverseMatchesReferenceOnLite holds the kernel to the reference
// drain bit for bit — estimates, residuals and push counts — on the
// graph the benchmark serves: 50 Why-Not item columns and 50 user
// columns, drained in the batches above as ToTargets drains them, at
// every pass width the CPU runs (kernel.body alone, body4, body8), so
// every body agrees with the scalar one bit for bit.
func TestReverseMatchesReferenceOnLite(t *testing.T) {
	g, p, users, items := liteGraph(t)
	want := make(map[hin.NodeID]*ppr.PushResult)
	for _, tgt := range append(slices.Clone(items), users...) {
		if want[tgt] == nil {
			want[tgt], _ = ppr.RefReverse(g, p, tgt, ppr.Relaxation(p.Alpha))
		}
	}
	for _, w := range ppr.HostWidths() {
		e := ppr.WidthReversePush(p, w)
		for _, set := range []struct {
			name string
			ts   []hin.NodeID
		}{{"item", items}, {"user", users}} {
			checked := make(map[hin.NodeID]bool)
			for _, batch := range batches(set.ts) {
				got, err := ppr.RunMany(context.Background(), e, g, batch)
				if err != nil {
					t.Fatal(err)
				}
				for k, tgt := range batch {
					ppr.SameRun(t, fmt.Sprintf("%d wide: %s %d in a batch of %d", w, set.name, tgt, len(batch)), got[k], want[tgt])
					checked[tgt] = true
				}
			}
			for _, tgt := range set.ts {
				if !checked[tgt] {
					t.Fatalf("%d wide: %s %d lies in no batch", w, set.name, tgt)
				}
			}
		}
	}
}

// BenchmarkReversePushLite drains the Lite graph's Why-Not item columns
// K at a time and reports the cost of one column, of one in-edge update
// and of one padded lane (the in-degrees of a column's pushes, summed,
// and the same padded to hin.InLanes, counted once per target outside
// the timer by the reference drain at the kernel's own ω,
// relaxation(α), so the denominators are the work the timed drain does,
// not that of a plain ω = 1 drain). ns/lane is the unit
// BenchmarkForwardPushLite reports too: the one body, per lane, in each
// direction.
func BenchmarkReversePushLite(b *testing.B) {
	g, p, _, items := liteGraph(b)
	work := make(map[hin.NodeID]ppr.RefWork, len(items))
	for _, t := range items {
		_, work[t] = ppr.RefReverse(g, p, t, ppr.Relaxation(p.Alpha))
	}
	e := ppr.NewReversePush(p)
	for _, K := range []int{1, 2, 3, 4, 5, 8, 9, 12} {
		b.Run(fmt.Sprintf("K=%d", K), func(b *testing.B) {
			b.ReportAllocs()
			ts := make([]hin.NodeID, K)
			var done ppr.RefWork
			for i := 0; i < b.N; i++ {
				for k := range ts {
					ts[k] = items[(i*K+k)%len(items)]
					done.Edges += work[ts[k]].Edges
					done.Lanes += work[ts[k]].Lanes
				}
				if _, err := e.ToTargets(context.Background(), g, ts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N*K), "ms/col")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(done.Edges), "ns/in-edge")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(done.Lanes), "ns/lane")
		})
	}
}

// TestReverseWithinEpsilonOnLite holds the two-sided contract on the
// graph the benchmark serves: every entry of 50 Why-Not item columns and
// 50 user columns lies within ε of the same column drained to ε/1000,
// which is itself within ε/1000 of the exact PPR.
func TestReverseWithinEpsilonOnLite(t *testing.T) {
	g, p, users, items := liteGraph(t)
	fine := p
	fine.Epsilon /= 1000
	for _, ts := range [][]hin.NodeID{items, users} {
		got, err := ppr.NewReversePush(p).ToTargets(context.Background(), g, ts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ppr.NewReversePush(fine).ToTargets(context.Background(), g, ts)
		if err != nil {
			t.Fatal(err)
		}
		for k, tgt := range ts {
			for x := range got[k] {
				if diff := got[k][x] - want[k][x]; math.Abs(diff) > p.Epsilon+fine.Epsilon {
					t.Fatalf("column %d at %d: estimate − reference = %g, beyond ε = %g", tgt, x, diff, p.Epsilon)
				}
			}
		}
	}
}

// BenchmarkForwardPushLite drains the Lite graph's sampled users' rows
// one cold run at a time and reports the cost of one run, of one
// out-edge update and of one padded lane (the out-degrees of a run's
// pushes, summed, and the same padded to hin.InLanes, counted once per
// user outside the timer by the reference drain at the kernel's own ω,
// so the denominators are the work the timed drain does). ns/lane
// compares with BenchmarkReversePushLite's.
func BenchmarkForwardPushLite(b *testing.B) {
	g, p, users, _ := liteGraph(b)
	work := make(map[hin.NodeID]ppr.RefWork, len(users))
	for _, u := range users {
		_, work[u] = ppr.RefForward(g, p, u, ppr.Relaxation(p.Alpha))
	}
	e := ppr.NewForwardPush(p)
	b.ReportAllocs()
	var done ppr.RefWork
	for i := 0; i < b.N; i++ {
		u := users[i%len(users)]
		done.Edges += work[u].Edges
		done.Lanes += work[u].Lanes
		if _, err := e.RunContext(context.Background(), g, u); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/run")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(done.Edges), "ns/out-edge")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(done.Lanes), "ns/lane")
}

// TestForwardMatchesUnpaddedOnLite holds the padded kernel to the
// unpadded loop it replaced — a HalfEdge walk adding (c/Σw)·w — bit for
// bit, estimates, residuals and push counts, on the graph the benchmark
// serves at β = 0.5, where every non-dangling row sums to exactly 1:
// the 50 sampled users' cold rows over the base snapshot and over the
// row-patched snapshot a Remove CHECK scores, the first half of the
// user's edges removed.
func TestForwardMatchesUnpaddedOnLite(t *testing.T) {
	g, p, users, _ := liteGraph(t)
	e := ppr.NewForwardPush(p)
	for _, u := range users {
		var removals []hin.Edge
		lite.raw.OutEdges(u, func(h hin.HalfEdge) bool {
			if len(removals) < lite.raw.OutDegree(u)/2 {
				removals = append(removals, hin.Edge{From: u, To: h.Node, Type: h.Type, Weight: h.Weight})
			}
			return true
		})
		o, err := hin.NewOverlay(lite.raw, removals, nil)
		if err != nil {
			t.Fatal(err)
		}
		patched := lite.rec.WithUserPatch(o, u).Flat()
		if node, _, _ := patched.PatchedRow(); node != u || len(removals) == 0 {
			t.Fatalf("user %d: the Remove patch (%d edges) did not patch the user's row", u, len(removals))
		}
		for _, run := range []struct {
			name string
			g    *hin.CSR
		}{{"base", g}, {"remove-patched", patched}} {
			got, err := e.RunContext(context.Background(), run.g, u)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := ppr.RefForwardScale(run.g, p, u, ppr.Relaxation(p.Alpha))
			ppr.SameRun(t, fmt.Sprintf("user %d, %s", u, run.name), got, want)
		}
	}
}

// TestForwardWithinEpsilonOnLite holds the two-sided forward contract on
// the graph the benchmark serves: every entry of 50 sampled users' rows
// lies within ε·C(t) of the same row drained to ε/1000, which is itself
// within (ε/1000)·C(t) of the exact PPR, C = ppr.ColumnSums.
func TestForwardWithinEpsilonOnLite(t *testing.T) {
	g, p, users, _ := liteGraph(t)
	fine := p
	fine.Epsilon /= 1000
	sums := ppr.ColumnSums(g, p)
	for _, u := range users {
		got, err := ppr.NewForwardPush(p).RunContext(context.Background(), g, u)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ppr.NewForwardPush(fine).RunContext(context.Background(), g, u)
		if err != nil {
			t.Fatal(err)
		}
		for x := range got.Estimates {
			if diff := got.Estimates[x] - want.Estimates[x]; math.Abs(diff) > p.ForwardErr(sums[x])+fine.ForwardErr(sums[x]) {
				t.Fatalf("user %d at %d: estimate − reference = %g, beyond ε·C = %g", u, x, diff, p.ForwardErr(sums[x]))
			}
		}
	}
}

// TestForwardPushesOnLite pins the mean push count of a cold forward
// run over the 50 sampled users' rows within 10 % of 83 322, the count
// measured when the guard went in. The sweep visits nodes in id order
// and the generator numbers users before items, so every push runs
// along the sweep; a generator, codec or loader change that reorders
// the nodes (items before users reads ~230 k) would double the cost of
// every cold CHECK without changing one answer.
func TestForwardPushesOnLite(t *testing.T) {
	g, p, users, _ := liteGraph(t)
	e := ppr.NewForwardPush(p)
	total := 0
	for _, u := range users {
		res, err := e.RunContext(context.Background(), g, u)
		if err != nil {
			t.Fatal(err)
		}
		total += res.Pushes
	}
	const want = 83322
	mean := float64(total) / float64(len(users))
	if math.Abs(mean-want) > 0.1*want {
		t.Fatalf("mean forward pushes per run = %.0f, want %d ± 10 %%: has the node order changed?", mean, want)
	}
}

package rec

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"github.com/why-not-xai/emigre/internal/hin"
	"github.com/why-not-xai/emigre/internal/ppr"
)

// rowPatch rewrites u's row of rg: each rated edge goes with
// probability 1/3, and up to adds new items join it.
func rowPatch(t testing.TB, rg *rankGraph, u hin.NodeID, rng *rand.Rand, adds int) *hin.Overlay {
	t.Helper()
	var rm, add []hin.Edge
	rg.g.OutEdges(u, func(h hin.HalfEdge) bool {
		if rng.Intn(3) == 0 {
			rm = append(rm, hin.Edge{From: u, To: h.Node, Type: h.Type})
		}
		return true
	})
	for ; adds > 0; adds-- {
		it := rg.items[rng.Intn(len(rg.items))]
		if !rg.g.HasEdge(u, it) && !slices.ContainsFunc(add, func(e hin.Edge) bool { return e.To == it }) {
			add = append(add, hin.Edge{From: u, To: it, Type: rg.rated, Weight: 0.5 + rng.Float64()})
		}
	}
	o, err := hin.NewOverlay(rg.g, rm, add)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// heldColumns returns the reverse columns of ts over r's snapshot.
func heldColumns(t testing.TB, r *Recommender, ts []Scored) []Held {
	t.Helper()
	var nodes []hin.NodeID
	for _, s := range ts {
		nodes = append(nodes, s.Node)
	}
	cols, err := ppr.NewReversePush(r.cfg.PPR).ToTargets(context.Background(), r.Flat(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	held := make([]Held, len(nodes))
	for i, v := range nodes {
		held[i] = Held{Node: v, Col: cols[i]}
	}
	return held
}

// decide runs TopDecided's push by hand, reporting beside its top k
// whether the certificate stopped it, and checks TopDecided agrees.
func decide(t testing.TB, r *Recommender, u hin.NodeID, k int, held []Held) (top []hin.NodeID, certified bool) {
	t.Helper()
	c := r.certificate(u, min(k, len(r.items)), held)
	if c == nil {
		t.Fatal("no certificate for a recommender patched at its user")
	}
	res, err := r.engine.RunUntil(context.Background(), r.Flat(), u, func(p, q ppr.Vector) bool {
		certified = c.decided(p, q)
		return certified
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range r.selectInto(u, res.Estimates, make([]Scored, 0, k)) {
		top = append(top, s.Node)
	}
	got, err := r.TopDecided(context.Background(), u, k, held)
	if len(top) == 0 {
		if !errors.Is(err, ErrNoCandidates) {
			t.Fatalf("user %d: TopDecided = %v, %v, want ErrNoCandidates", u, got, err)
		}
		return nil, certified
	}
	if err != nil || !slices.Equal(got, top) {
		t.Fatalf("user %d k=%d: TopDecided = %v, %v, its push by hand ranks %v", u, k, got, err, top)
	}
	return top, certified
}

// sameTop reports whether got names ref's top-1 first and ref's top k.
func sameTop(got []hin.NodeID, ref []Scored) bool {
	if len(got) != len(ref) || len(ref) > 0 && got[0] != ref[0].Node {
		return false
	}
	for _, s := range ref {
		if !slices.Contains(got, s.Node) {
			return false
		}
	}
	return true
}

// TestTopDecidedMatchesDrainAndExact holds the certified rank read to
// the drain and to the definition: over seeded rank graphs at β ∈
// {1, 0.5}, random row patches of several users and k ∈ {1, 2, 3}, with
// and without held columns, TopDecided names the drained push's top-1
// and top k; and whenever the certificate stopped the push early, they
// are the exact scores' top-1 and top k too (ppr.Exact).
func TestTopDecidedMatchesDrainAndExact(t *testing.T) {
	certified := 0
	for seed := int64(1); seed <= 4; seed++ {
		rg := newRankGraph(t, seed, []float64{1, 0.5}[seed%2])
		r, err := New(rg.g, rg.cfg)
		if err != nil {
			t.Fatal(err)
		}
		exact := ppr.NewExact(rg.cfg.PPR)
		rng := rand.New(rand.NewSource(seed))
		for _, u := range rg.users[:4] {
			held := heldColumns(t, r, topNBySort(r, u, mustScores(t, r, u), 3))
			for trial := 0; trial < 6; trial++ {
				patch := r.WithUserPatch(rowPatch(t, rg, u, rng, trial%3), u)
				drained := mustScores(t, patch, u)
				want, err := exact.FromSource(patch.Flat(), u)
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []int{1, 2, 3} {
					for _, h := range [][]Held{nil, held} {
						got, early := decide(t, patch, u, k, h)
						if ref := topNBySort(patch, u, drained, k); !sameTop(got, ref) {
							t.Fatalf("seed %d user %d k=%d: top %v, the drain ranks %v", seed, u, k, got, ref)
						}
						if !early {
							continue
						}
						certified++
						if ref := topNBySort(patch, u, want, k); !sameTop(got, ref) {
							t.Fatalf("seed %d user %d k=%d: certified %v, the exact scores rank %v", seed, u, k, got, ref)
						}
					}
				}
			}
		}
	}
	if certified == 0 {
		t.Fatal("no push was ever certified early; the test is vacuous")
	}
}

// TestTopDecidedEdgeCases: a user with no candidate gets ErrNoCandidates,
// k < 1 is an error, and a recommender patched at another node drains
// (no certificate).
func TestTopDecidedEdgeCases(t *testing.T) {
	rg := newRankGraph(t, 2, 0.5)
	r, err := New(rg.g, rg.cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := r.TopDecided(ctx, rg.sated, 1, nil); !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("sated user: err = %v, want ErrNoCandidates", err)
	}
	if _, err := r.TopDecided(ctx, rg.users[0], 0, nil); err == nil {
		t.Fatal("k = 0 is not an error")
	}
	u, v := rg.users[0], rg.users[1]
	other := r.WithUserPatch(rowPatch(t, rg, v, rand.New(rand.NewSource(1)), 1), v)
	if other.certificate(u, 1, nil) != nil {
		t.Fatal("a patch at another user carries a certificate")
	}
	if twice := other.WithUserPatch(rowPatch(t, rg, v, rand.New(rand.NewSource(2)), 1), v); twice.ColumnSums() != nil {
		t.Fatal("a patch of a patch claims column sums")
	}
}

// TestCertificateTestAllocatesNothing pins the stop test at zero
// allocations: it runs between every two sweeps of a cold CHECK.
func TestCertificateTestAllocatesNothing(t *testing.T) {
	rg := newRankGraph(t, 5, 0.5)
	r, err := New(rg.g, rg.cfg)
	if err != nil {
		t.Fatal(err)
	}
	u := rg.users[1]
	held := heldColumns(t, r, topNBySort(r, u, mustScores(t, r, u), 2))
	sweeps := 0
	res, err := r.engine.RunUntil(context.Background(), r.Flat(), u, func(ppr.Vector, ppr.Vector) bool {
		sweeps++
		return sweeps == 2
	})
	if err != nil {
		t.Fatal(err)
	}
	c := r.certificate(u, 2, held)
	if got := testing.AllocsPerRun(100, func() { c.decided(res.Estimates, res.Residuals) }); got != 0 {
		t.Fatalf("one stop test allocates %v times, want 0", got)
	}
}

// FuzzCertifiedTop: on a random rank graph, a random row patch of a
// random user and k ∈ {1, 2, 3}, the certified read names the drained
// push's top-1 and top k.
func FuzzCertifiedTop(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(2), uint8(0))
	f.Add(int64(2), uint8(3), uint8(0), uint8(1))
	f.Add(int64(7), uint8(1), uint8(5), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, user, adds, k uint8) {
		rg := newRankGraph(t, seed, []float64{1, 0.5}[seed&1])
		r, err := New(rg.g, rg.cfg)
		if err != nil {
			t.Fatal(err)
		}
		u := rg.users[int(user)%len(rg.users)]
		patch := r.WithUserPatch(rowPatch(t, rg, u, rand.New(rand.NewSource(seed)), int(adds%4)), u)
		kk := 1 + int(k%3)
		got, err := patch.TopDecided(context.Background(), u, kk, nil)
		ref := topNBySort(patch, u, mustScores(t, patch, u), kk)
		if len(ref) == 0 {
			if !errors.Is(err, ErrNoCandidates) {
				t.Fatalf("user %d: %v, %v, want ErrNoCandidates", u, got, err)
			}
			return
		}
		if err != nil || !sameTop(got, ref) {
			t.Fatalf("user %d k=%d: certified %v (%v), the drain ranks %v", u, kk, got, err, ref)
		}
	})
}

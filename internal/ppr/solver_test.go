package ppr

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/why-not-xai/emigre/internal/hin"
)

func TestExactMatchesPowerIteration(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 10; trial++ {
		g := hin.NewCSR(randomBidirGraph(rng, 5+rng.Intn(25), rng.Intn(60)))
		s := hin.NodeID(rng.Intn(g.NumNodes()))
		params := testParams()
		exact, err := NewExact(params).FromSource(g, s)
		if err != nil {
			t.Fatal(err)
		}
		iter, err := testPower(params).FromSource(g, s)
		if err != nil {
			t.Fatal(err)
		}
		for v := range exact {
			if diff := math.Abs(exact[v] - iter[v]); diff > 1e-8 {
				t.Fatalf("trial %d: π(%d,%d) exact %g vs power %g", trial, s, v, exact[v], iter[v])
			}
		}
	}
}

func TestExactMatchesForwardPush(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	g := hin.NewCSR(randomBidirGraph(rng, 30, 80))
	params := testParams()
	s := hin.NodeID(3)
	exact, err := NewExact(params).FromSource(g, s)
	if err != nil {
		t.Fatal(err)
	}
	push, err := NewForwardPush(params).FromSourceContext(context.Background(), g, s)
	if err != nil {
		t.Fatal(err)
	}
	for v := range exact {
		if diff := math.Abs(exact[v] - push[v]); diff > 1e-6 {
			t.Fatalf("π(%d,%d) exact %g vs push %g", s, v, exact[v], push[v])
		}
	}
}

func TestExactDanglingGraph(t *testing.T) {
	g, ids := lineGraph(t) // u -> a -> b, b dangling
	params := testParams()
	exact, err := NewExact(params).FromSource(g, ids[0])
	if err != nil {
		t.Fatal(err)
	}
	alpha := params.Alpha
	want := []float64{alpha, (1 - alpha) * alpha, (1 - alpha) * (1 - alpha) * alpha}
	for i, node := range ids {
		if diff := math.Abs(exact[node] - want[i]); diff > 1e-12 {
			t.Fatalf("π(u,%d) = %g, want %g", node, exact[node], want[i])
		}
	}
}

func TestExactNodeLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	g := hin.NewCSR(randomBidirGraph(rng, 40, 60))
	e := NewExact(testParams())
	e.MaxNodes = 10
	if _, err := e.FromSource(g, 0); err == nil {
		t.Fatal("expected node-limit error")
	}
	if _, err := NewExact(testParams()).FromSource(g, -1); err == nil {
		t.Fatal("expected range error")
	}
}

func TestQuickExactAgreesWithPush(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := hin.NewCSR(randomBidirGraph(rng, 4+rng.Intn(12), rng.Intn(24)))
		s := hin.NodeID(rng.Intn(g.NumNodes()))
		params := testParams()
		exact, err := NewExact(params).FromSource(g, s)
		if err != nil {
			return false
		}
		push, err := NewForwardPush(params).FromSourceContext(context.Background(), g, s)
		if err != nil {
			return false
		}
		for v := range exact {
			if math.Abs(exact[v]-push[v]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

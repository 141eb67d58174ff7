package ppr

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/why-not-xai/emigre/internal/hin"
)

// testParams are loose enough to run fast but tight enough that the
// engines agree to ~1e-6.
func testParams() Params {
	p := DefaultParams()
	p.Epsilon = 1e-9
	p.Tol = 1e-13
	return p
}

// lineGraph builds u -> a -> b with unit weights (b dangling).
func lineGraph(t *testing.T) (*hin.Graph, []hin.NodeID) {
	t.Helper()
	g := hin.NewGraph()
	nt := g.Types().NodeType("n")
	et := g.Types().EdgeType("e")
	u := g.AddNode(nt, "u")
	a := g.AddNode(nt, "a")
	b := g.AddNode(nt, "b")
	if err := g.AddEdge(u, a, et, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(a, b, et, 1); err != nil {
		t.Fatal(err)
	}
	return g, []hin.NodeID{u, a, b}
}

// randomBidirGraph builds a connected-ish random bidirectional graph.
func randomBidirGraph(rng *rand.Rand, nodes, extra int) *hin.Graph {
	g := hin.NewGraph()
	nt := g.Types().NodeType("n")
	et := g.Types().EdgeType("e")
	for i := 0; i < nodes; i++ {
		g.AddNode(nt, "")
	}
	// Spanning chain keeps the graph connected.
	for i := 1; i < nodes; i++ {
		_ = g.AddBidirectional(hin.NodeID(i-1), hin.NodeID(i), et, rng.Float64()+0.2)
	}
	for i := 0; i < extra; i++ {
		a := hin.NodeID(rng.Intn(nodes))
		b := hin.NodeID(rng.Intn(nodes))
		if a == b {
			continue
		}
		_ = g.AddBidirectional(a, b, et, rng.Float64()+0.2)
	}
	return g
}

func TestPowerLineGraphClosedForm(t *testing.T) {
	g, ids := lineGraph(t)
	u, a, b := ids[0], ids[1], ids[2]
	p := testParams()
	alpha := p.Alpha
	e := NewPower(p)
	v, err := e.FromSource(g, u)
	if err != nil {
		t.Fatal(err)
	}
	// Walk from u: stays at u w.p. alpha; goes to a, stops w.p. alpha...
	want := []float64{alpha, (1 - alpha) * alpha, (1 - alpha) * (1 - alpha) * alpha}
	for i, node := range []hin.NodeID{u, a, b} {
		if math.Abs(v[node]-want[i]) > 1e-9 {
			t.Fatalf("PPR(u,%d) = %g, want %g", node, v[node], want[i])
		}
	}
	// Mass lost at dangling b: total = alpha + (1-a)alpha + (1-a)^2 (walk
	// absorbed at b contributes alpha at arrival only).
	if v.Sum() >= 1 {
		t.Fatalf("sum = %g, want < 1 on dangling graph", v.Sum())
	}
}

func TestPowerToTargetMatchesFromSource(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomBidirGraph(rng, 20, 30)
	e := NewPower(testParams())
	tgt := hin.NodeID(7)
	col, err := e.ToTarget(g, tgt)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < g.NumNodes(); s += 3 {
		row, err := e.FromSource(g, hin.NodeID(s))
		if err != nil {
			t.Fatal(err)
		}
		if diff := math.Abs(row[tgt] - col[s]); diff > 1e-8 {
			t.Fatalf("PPR(%d,%d): row %g vs column %g", s, tgt, row[tgt], col[s])
		}
	}
}

func TestForwardPushAgreesWithPower(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		g := randomBidirGraph(rng, 10+rng.Intn(20), rng.Intn(40))
		pw := NewPower(testParams())
		fp := NewForwardPush(testParams())
		s := hin.NodeID(rng.Intn(g.NumNodes()))
		exact, err := pw.FromSource(g, s)
		if err != nil {
			t.Fatal(err)
		}
		approx, err := fp.FromSource(g, s)
		if err != nil {
			t.Fatal(err)
		}
		for v := range exact {
			if diff := math.Abs(exact[v] - approx[v]); diff > 1e-6 {
				t.Fatalf("trial %d: PPR(%d,%d) power %g vs push %g", trial, s, v, exact[v], approx[v])
			}
		}
	}
}

func TestReversePushAgreesWithPower(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		g := randomBidirGraph(rng, 10+rng.Intn(20), rng.Intn(40))
		pw := NewPower(testParams())
		rp := NewReversePush(testParams())
		tgt := hin.NodeID(rng.Intn(g.NumNodes()))
		exact, err := pw.ToTarget(g, tgt)
		if err != nil {
			t.Fatal(err)
		}
		approx, err := rp.ToTarget(g, tgt)
		if err != nil {
			t.Fatal(err)
		}
		for v := range exact {
			if diff := math.Abs(exact[v] - approx[v]); diff > 1e-6 {
				t.Fatalf("trial %d: PPR(%d,%d) power %g vs reverse push %g", trial, v, tgt, exact[v], approx[v])
			}
		}
	}
}

func TestForwardPushInvariantEq3(t *testing.T) {
	// PPR(s,t) = P(s,t) + Σ_x R(s,x)·PPR(x,t): verify with a loose
	// epsilon so residuals are substantial.
	rng := rand.New(rand.NewSource(21))
	g := randomBidirGraph(rng, 12, 20)
	p := testParams()
	p.Epsilon = 1e-3 // deliberately coarse
	fp := NewForwardPush(p)
	pw := NewPower(testParams())
	s := hin.NodeID(0)
	res, err := fp.Run(g, s)
	if err != nil {
		t.Fatal(err)
	}
	for tgt := 0; tgt < g.NumNodes(); tgt += 2 {
		exactCol, err := pw.ToTarget(g, hin.NodeID(tgt))
		if err != nil {
			t.Fatal(err)
		}
		recon := res.Estimates[tgt]
		for x := range res.Residuals {
			if res.Residuals[x] > 0 {
				recon += res.Residuals[x] * exactCol[x]
			}
		}
		exactRow, err := pw.FromSource(g, s)
		if err != nil {
			t.Fatal(err)
		}
		if diff := math.Abs(recon - exactRow[tgt]); diff > 1e-7 {
			t.Fatalf("Eq.3 invariant violated at t=%d: recon %g vs exact %g", tgt, recon, exactRow[tgt])
		}
	}
}

func TestReversePushInvariantEq4(t *testing.T) {
	// PPR(s,t) = P(s,t) + Σ_x PPR(s,x)·R(x,t).
	rng := rand.New(rand.NewSource(22))
	g := randomBidirGraph(rng, 12, 20)
	p := testParams()
	p.Epsilon = 1e-3
	rp := NewReversePush(p)
	pw := NewPower(testParams())
	tgt := hin.NodeID(3)
	res, err := rp.Run(g, tgt)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < g.NumNodes(); s += 2 {
		exactRow, err := pw.FromSource(g, hin.NodeID(s))
		if err != nil {
			t.Fatal(err)
		}
		recon := res.Estimates[s]
		for x := range res.Residuals {
			if res.Residuals[x] > 0 {
				recon += exactRow[x] * res.Residuals[x]
			}
		}
		if diff := math.Abs(recon - exactRow[tgt]); diff > 1e-7 {
			t.Fatalf("Eq.4 invariant violated at s=%d: recon %g vs exact %g", s, recon, exactRow[tgt])
		}
	}
}

func TestPPRLinearityOverOutEdges(t *testing.T) {
	// PPR(u,t) = α[u==t] + (1−α) Σ_n W(u,n) PPR(n,t) — the identity
	// EMiGRe's contribution functions rely on (DESIGN.md §3.1).
	rng := rand.New(rand.NewSource(33))
	g := randomBidirGraph(rng, 15, 25)
	p := testParams()
	pw := NewPower(p)
	tgt := hin.NodeID(9)
	col, err := pw.ToTarget(g, tgt)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.NumNodes(); u++ {
		var acc float64
		total := g.OutWeightSum(hin.NodeID(u))
		g.OutEdges(hin.NodeID(u), func(h hin.HalfEdge) bool {
			acc += h.Weight / total * col[h.Node]
			return true
		})
		want := (1 - p.Alpha) * acc
		if hin.NodeID(u) == tgt {
			want += p.Alpha
		}
		if diff := math.Abs(col[u] - want); diff > 1e-8 {
			t.Fatalf("linearity violated at u=%d: PPR %g vs decomposition %g", u, col[u], want)
		}
	}
}

func TestPPRSumsToOneOnStochasticGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	g := randomBidirGraph(rng, 20, 40) // bidirectional: no dangling nodes
	pw := NewPower(testParams())
	v, err := pw.FromSource(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v.Sum()-1) > 1e-9 {
		t.Fatalf("PPR mass = %g, want 1", v.Sum())
	}
	for i, x := range v {
		if x < 0 {
			t.Fatalf("negative score at %d: %g", i, x)
		}
	}
}

func TestParamValidation(t *testing.T) {
	bad := []Params{
		{Alpha: 0, Epsilon: 1e-8, MaxIter: 10},
		{Alpha: 1, Epsilon: 1e-8, MaxIter: 10},
		{Alpha: 0.5, Epsilon: 0, MaxIter: 10},
		{Alpha: 0.5, Epsilon: 1e-8, MaxIter: 0},
		{Alpha: math.NaN(), Epsilon: 1e-8, MaxIter: 10},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("params #%d should be invalid: %+v", i, p)
		}
	}
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
}

func TestEngineNodeRangeErrors(t *testing.T) {
	g, _ := lineGraph(t)
	p := testParams()
	engines := []Engine{NewPower(p), NewForwardPush(p)}
	for _, e := range engines {
		if _, err := e.FromSource(g, -1); !errors.Is(err, ErrNodeOutOfRange) {
			t.Fatalf("%s: err = %v, want ErrNodeOutOfRange", e.Name(), err)
		}
		if _, err := e.FromSource(g, 99); !errors.Is(err, ErrNodeOutOfRange) {
			t.Fatalf("%s: err = %v, want ErrNodeOutOfRange", e.Name(), err)
		}
	}
	for _, e := range []ReverseEngine{NewPower(p), NewReversePush(p)} {
		if _, err := e.ToTarget(g, 99); !errors.Is(err, ErrNodeOutOfRange) {
			t.Fatalf("%s: err = %v, want ErrNodeOutOfRange", e.Name(), err)
		}
	}
}

func TestVectorHelpers(t *testing.T) {
	v := Vector{0.1, 0.5, 0.4}
	if got := v.ArgMax(); got != 1 {
		t.Fatalf("ArgMax = %d, want 1", got)
	}
	if math.Abs(v.Sum()-1.0) > 1e-15 {
		t.Fatalf("Sum = %g, want 1", v.Sum())
	}
	var empty Vector
	if got := empty.ArgMax(); got != hin.InvalidNode {
		t.Fatalf("ArgMax(empty) = %d, want InvalidNode", got)
	}
	tie := Vector{0.5, 0.5}
	if got := tie.ArgMax(); got != 0 {
		t.Fatalf("ArgMax should break ties toward lowest index, got %d", got)
	}
}

func TestQuickPushAgreement(t *testing.T) {
	// Property: forward push and reverse push agree on PPR(s,t) for
	// random graphs, sources and targets.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomBidirGraph(rng, 5+rng.Intn(15), rng.Intn(30))
		s := hin.NodeID(rng.Intn(g.NumNodes()))
		tgt := hin.NodeID(rng.Intn(g.NumNodes()))
		p := testParams()
		fwd, err := NewForwardPush(p).FromSource(g, s)
		if err != nil {
			return false
		}
		rev, err := NewReversePush(p).ToTarget(g, tgt)
		if err != nil {
			return false
		}
		return math.Abs(fwd[tgt]-rev[s]) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPowerNoConvergenceError(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	g := randomBidirGraph(rng, 30, 60)
	p := testParams()
	p.MaxIter = 1
	p.Tol = 1e-300
	if _, err := NewPower(p).FromSource(g, 0); !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("err = %v, want ErrNoConvergence", err)
	}
	if _, err := NewPower(p).ToTarget(g, 0); !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("err = %v, want ErrNoConvergence", err)
	}
}

package emigre

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/why-not-xai/emigre/internal/hin"
	"github.com/why-not-xai/emigre/internal/obs"
	"github.com/why-not-xai/emigre/internal/ppr"
	"github.com/why-not-xai/emigre/internal/rec"
	"github.com/why-not-xai/emigre/internal/testleak"
)

// gateWorld is a seeded random HIN small enough to enumerate every
// user-row edit: a Why-Not question plus a universe of at most ten
// user-rooted edits (removals or reweights of the user's edges, and
// additions toward items the user has not touched — the current
// recommendation among them, so a rival can stop being a candidate).
// twin is an item with WNI's exact neighbourhood and a higher id: its
// score ties WNI's under every edit. near is another copy with one
// edge a billionth heavier: always ahead of WNI, by less than any push
// at these ε can resolve.
type gateWorld struct {
	g        *hin.Graph
	r        *rec.Recommender
	opts     Options
	u        hin.NodeID
	wni      hin.NodeID
	twin     hin.NodeID
	near     hin.NodeID
	universe []candidate
}

// newGateWorld builds world number seed. Even seeds make every existing
// edge a removal, so the full mask empties the row; odd seeds mix
// removals and reweights.
func newGateWorld(t testing.TB, seed int64, beta, eps float64) *gateWorld {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := hin.NewGraph()
	user := g.Types().NodeType("user")
	item := g.Types().NodeType("item")
	cat := g.Types().NodeType("category")
	rated := g.Types().EdgeType("rated")
	belongs := g.Types().EdgeType("belongs-to")
	const nUsers, nItems, nCats = 4, 9, 2
	var users, items, cats []hin.NodeID
	for i := 0; i < nUsers; i++ {
		users = append(users, g.AddNode(user, fmt.Sprintf("u%d", i)))
	}
	for i := 0; i < nItems; i++ {
		items = append(items, g.AddNode(item, fmt.Sprintf("i%d", i)))
	}
	for i := 0; i < nCats; i++ {
		cats = append(cats, g.AddNode(cat, fmt.Sprintf("c%d", i)))
	}
	link := func(a, b hin.NodeID, typ hin.EdgeTypeID, w float64) {
		t.Helper()
		if err := g.AddBidirectional(a, b, typ, w); err != nil {
			t.Fatal(err)
		}
	}
	for _, it := range items {
		link(it, cats[rng.Intn(nCats)], belongs, 1)
	}
	u := users[0]
	for _, it := range rng.Perm(nItems)[:4] {
		link(u, items[it], rated, float64(1+rng.Intn(5)))
	}
	for _, v := range users[1:] {
		for _, it := range rng.Perm(nItems)[:3+rng.Intn(3)] {
			link(v, items[it], rated, float64(1+rng.Intn(5)))
		}
	}
	cfg := rec.DefaultConfig(item)
	cfg.Beta = beta
	cfg.PPR.Epsilon = eps
	probe, err := rec.New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	top, err := probe.TopN(u, nItems)
	if err != nil || len(top) < 3 {
		t.Fatalf("seed %d: user has %d candidates (%v)", seed, len(top), err)
	}
	wni := top[len(top)/2].Node
	// The twin copies WNI's neighbourhood edge for edge; near tilts one.
	twin, near := g.AddNode(item, "twin"), g.AddNode(item, "near")
	tilt := 1 + 1e-9
	for _, e := range g.OutEdgesOfType(wni, hin.EdgeTypeSet{}) {
		link(twin, e.To, e.Type, e.Weight)
		link(near, e.To, e.Type, e.Weight*tilt)
		tilt = 1
	}
	r, err := rec.New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := &gateWorld{g: g, r: r, u: u, wni: wni, twin: twin, near: near,
		opts: Options{AllowedEdgeTypes: hin.NewEdgeTypeSet(rated), AddEdgeType: rated, DisableCache: true}}
	for _, e := range g.OutEdgesOfType(u, hin.NewEdgeTypeSet(rated)) {
		c := candidate{edge: e, op: Remove}
		if seed%2 == 1 && rng.Intn(2) == 0 {
			c.op = Reweight
			c.edge.Weight = e.Weight + 3
		}
		w.universe = append(w.universe, c)
	}
	for _, it := range items {
		if len(w.universe) == 10 {
			break
		}
		if it != wni && !g.HasEdge(u, it) {
			w.universe = append(w.universe, candidate{
				edge: hin.Edge{From: u, To: it, Type: rated, Weight: float64(1 + rng.Intn(5))}, op: Add})
		}
	}
	return w
}

// edit returns the candidate set of one subset of the universe.
func (w *gateWorld) edit(mask int) []candidate {
	var cands []candidate
	for i, c := range w.universe {
		if mask&(1<<i) != 0 {
			cands = append(cands, c)
		}
	}
	return cands
}

func (w *gateWorld) session(t testing.TB, mutate func(*Explainer)) *session {
	t.Helper()
	ex := New(w.g, w.r, w.opts)
	if mutate != nil {
		mutate(ex)
	}
	s, err := ex.newSession(context.Background(), Query{User: w.u, WNI: w.wni}, Combined)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

var gateWorldSeeds = []int64{1, 2, 3, 4}

// TestRivalGateIdentityMatchesExact is the identity behind the gate,
// held to the dense solver: with every column assembled from ppr.Exact
// rows, (1−α)/D′·m_t equals the exact post-edit score difference for
// every subset of the edit universe — removals, additions, reweights,
// mixes, β-mixed rows — and every ordered item pair, to 1e-12. A row
// emptied completely scores nothing but u.
func TestRivalGateIdentityMatchesExact(t *testing.T) {
	for _, beta := range []float64{1, 0.5} {
		for _, seed := range gateWorldSeeds {
			w := newGateWorld(t, seed, beta, 2.7e-8)
			p := w.r.Config().PPR
			exact := ppr.NewExact(p)
			flat := w.r.Flat()
			n := flat.NumNodes()
			// col[t][x] = PPR(x, t) over the base view.
			col := make([]ppr.Vector, n)
			for t2 := range col {
				col[t2] = make(ppr.Vector, n)
			}
			for x := 0; x < n; x++ {
				row, err := exact.FromSource(flat, hin.NodeID(x))
				if err != nil {
					t.Fatal(err)
				}
				for t2, v := range row {
					col[t2][x] = v
				}
			}
			var items []hin.NodeID
			for v := 0; v < n; v++ {
				if w.r.IsItem(hin.NodeID(v)) {
					items = append(items, hin.NodeID(v))
				}
			}
			s := &session{ex: New(w.g, w.r, w.opts), q: Query{User: w.u, WNI: w.wni}}
			emptied := false
			for mask := 0; mask < 1<<len(w.universe); mask++ {
				r2, err := s.counterfactual(w.edit(mask))
				if err != nil {
					t.Fatal(err)
				}
				after, err := exact.FromSource(r2.Flat(), w.u)
				if err != nil {
					t.Fatal(err)
				}
				row, total := r2.Flat().OutSlice(w.u), r2.Flat().OutWeightSum(w.u)
				if len(row) == 0 {
					emptied = true
					for _, it := range items {
						if after[it] != 0 {
							t.Fatalf("β=%g seed %d mask %b: emptied row still scores item %d at %g", beta, seed, mask, it, after[it])
						}
					}
					continue
				}
				returns := 0.0
				for _, h := range row {
					returns += h.Weight / total * col[w.u][h.Node] / col[w.u][w.u]
				}
				scale := (1 - p.Alpha) / (1 - (1-p.Alpha)*returns)
				for _, a := range items {
					for _, b := range items {
						m, _ := rivalMargin(row, total, w.u, b, col[a], col[b], col[w.u])
						if got, want := scale*m, after[a]-after[b]; math.Abs(got-want) > 1e-12 {
							t.Fatalf("β=%g seed %d mask %b pair (%d,%d): identity gives %g, exact difference is %g",
								beta, seed, mask, a, b, got, want)
						}
					}
				}
			}
			if seed%2 == 0 && !emptied {
				t.Fatalf("β=%g seed %d: no subset emptied the row", beta, seed)
			}
		}
	}
}

// onlyRival swaps in a rival list that knows t alone and returns a func
// restoring the learned one.
func onlyRival(s *session, t hin.NodeID) (restore func()) {
	old := s.gate
	one := *old
	one.list = nil
	for _, rv := range old.list {
		if rv.node == t {
			one.list = []rival{rv}
		}
	}
	s.gate = &one
	return func() { s.gate = old }
}

// checkGated runs one CHECK and reports whether the rival gate decided it.
func checkGated(tb testing.TB, s *session, cands []candidate) (ok bool, top hin.NodeID, gated bool) {
	tb.Helper()
	before := s.stats.Gated
	ok, top, err := s.check(cands)
	if err != nil {
		tb.Fatal(err)
	}
	return ok, top, s.stats.Gated > before
}

// TestRivalGateIsSound runs every subset of every world through the
// real CHECK at the paper's ε and at a coarse one, for top-1 and top-2
// questions: whatever the gate rejects, the cold-only CHECK rejects
// too, with another item on top; a pass is a cold pass. The twin ties
// WNI exactly under every edit and its tilted copy leads by a sliver,
// so the gate may never reject on either — a gap inside the margin
// falls through to the cold push — and an emptied row is never gated.
func TestRivalGateIsSound(t *testing.T) {
	ctx := context.Background()
	for _, eps := range []float64{2.7e-8, 1e-4} {
		gatedAt := 0
		for _, k := range []int{1, 2} {
			for _, beta := range []float64{1, 0.5} {
				for _, seed := range gateWorldSeeds {
					w := newGateWorld(t, seed, beta, eps)
					w.opts.TargetRank = k
					s := w.session(t, nil)
					cold := w.session(t, func(ex *Explainer) { ex.noGate = true })
					name := fmt.Sprintf("ε=%g k=%d β=%g seed %d", eps, k, beta, seed)
					for mask := 0; mask < 1<<len(w.universe); mask++ {
						cands := w.edit(mask)
						ok, _, gated := checkGated(t, s, cands)
						okC, topC, _ := checkGated(t, cold, cands)
						if ok && !okC {
							t.Fatalf("%s mask %b: CHECK passed a set the cold CHECK rejects", name, mask)
						}
						if !gated {
							continue
						}
						gatedAt++
						if okC || topC == w.wni {
							t.Fatalf("%s mask %b: gated a set that passes the cold CHECK (cold top %d)", name, mask, topC)
						}
						if r2, _ := s.counterfactual(cands); len(r2.Flat().OutSlice(w.u)) == 0 {
							t.Fatalf("%s mask %b: gated an emptied row", name, mask)
						}
					}
					if s.gate == nil {
						continue // every subset passed: nothing was learned
					}
					// Exact ties and gaps inside the margin: with the twin or
					// its tilted copy as the only rival no subset is gated at
					// rank 1, whichever way the push noise leans.
					for _, tie := range []hin.NodeID{w.twin, w.near} {
						if err := s.learn(ctx, tie); err != nil {
							t.Fatal(err)
						}
						if k > 1 {
							continue
						}
						restore := onlyRival(s, tie)
						for mask := 0; mask < 1<<len(w.universe); mask++ {
							r2, err := s.counterfactual(w.edit(mask))
							if err != nil {
								t.Fatal(err)
							}
							if s.gated(r2) {
								t.Fatalf("%s mask %b: gated on %s, whose lead over WNI is inside the margin", name, mask, w.g.Label(tie))
							}
						}
						restore()
					}
				}
			}
		}
		t.Logf("ε=%g: %d subsets gated", eps, gatedAt)
		if eps < 1e-6 && gatedAt == 0 {
			t.Fatalf("ε=%g: the gate never fired; the soundness check is vacuous", eps)
		}
	}
}

// TestRivalGateABExplanationsIdentical is the gate's acceptance A/B:
// across modes × methods × target ranks, on the bookshop fixture's two
// questions and on random graphs, the gate may only change which step
// rejects a set — never the explanation, Tests, CombosExamined, or the
// budget and exhaustion error strings. Each gated search runs twice on
// fresh explainers, and the repeat must reproduce every Stats field,
// the Gated/Cold split included: there is one CHECK evaluator, so
// nothing about the split depends on timing.
func TestRivalGateABExplanationsIdentical(t *testing.T) {
	testleak.Check(t)
	type world struct {
		name string
		g    *hin.Graph
		r    *rec.Recommender
		q    Query
		opts Options
	}
	var worlds []world
	for _, wni := range []string{"f2", "f3"} {
		f := newFixture(t, Options{})
		worlds = append(worlds, world{"bookshop/" + wni, f.g, f.r, Query{User: f.ids["u"], WNI: f.ids[wni]}, f.ex.opts})
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; len(worlds) < 6; i++ {
		if qf := buildQuickFixture(rng); qf != nil {
			worlds = append(worlds, world{fmt.Sprintf("random/%d", i), qf.g, qf.r, Query{User: qf.user, WNI: qf.wni}, qf.ex.opts})
		}
	}
	gated0 := gatedChecks.Value()
	for _, w := range worlds {
		for _, mode := range []Mode{Remove, Add, Combined, Reweight} {
			for _, method := range []Method{Incremental, Powerset, Exhaustive, BruteForce} {
				if method == BruteForce && mode != Remove {
					continue
				}
				for _, k := range []int{1, 3} {
					for _, maxTests := range []int{0, 3} {
						opts := w.opts
						opts.TargetRank, opts.MaxTests, opts.Cache = k, maxTests, nil
						ref := New(w.g, w.r, opts)
						ref.noGate = true
						want, errW := ref.ExplainWith(w.q, mode, method)
						var first *Explanation
						for run := 1; run <= 2; run++ {
							got, errG := New(w.g, w.r, opts).ExplainWith(w.q, mode, method)
							name := fmt.Sprintf("%s %v/%v k=%d budget=%d run %d", w.name, mode, method, k, maxTests, run)
							if (errW == nil) != (errG == nil) || (errW != nil && errW.Error() != errG.Error()) {
								t.Fatalf("%s: error mismatch:\ngate off: %v\ngate on:  %v", name, errW, errG)
							}
							if errW != nil {
								if errors.Is(errW, ErrBudgetExhausted) != errors.Is(errG, ErrBudgetExhausted) {
									t.Fatalf("%s: budget sentinel mismatch", name)
								}
								continue
							}
							if st := got.Stats; st.Gated+st.Cold != st.Tests {
								t.Errorf("%s: stats %+v do not add up", name, st)
							}
							if want.Stats.Gated != 0 {
								t.Errorf("%s: gate-off run reports %d gated checks", name, want.Stats.Gated)
							}
							a, b := stripVariance(*want), stripVariance(*got)
							if !reflect.DeepEqual(&a, &b) {
								t.Errorf("%s: explanations diverge:\ngate off: %+v\ngate on:  %+v", name, &a, &b)
							}
							got.Stats.Duration = 0
							if first == nil {
								first = got
							} else if !reflect.DeepEqual(first, got) {
								t.Errorf("%s: repeat run diverges:\nfirst:  %+v\nrepeat: %+v", name, first.Stats, got.Stats)
							}
						}
					}
				}
			}
		}
	}
	if gatedChecks.Value() == gated0 {
		t.Fatal("no search was ever gated; the A/B is vacuous")
	}
}

// TestRivalGateLeavesGroupQueriesAlone pins that a group question never
// engages the gate: the pairwise identity speaks about WNI alone, not
// about an accept set. {f3} has no removal explanation, so its search
// rejects all seven subsets by cold push; {f3, f2} is answered.
func TestRivalGateLeavesGroupQueriesAlone(t *testing.T) {
	run := func(f *fixture, members ...string) (*Explanation, error) {
		q := GroupQuery{User: f.ids["u"]}
		for _, m := range members {
			q.Items = append(q.Items, f.ids[m])
		}
		return f.ex.ExplainGroup(q, Remove, BruteForce)
	}
	gated0, cold0 := gatedChecks.Value(), coldChecks.Value()
	_, errOn := run(newFixture(t, Options{}), "f3")
	if cold := coldChecks.Value() - cold0; !errors.Is(errOn, ErrNoExplanation) || cold != 7 {
		t.Fatalf("err = %v after %d cold checks, want seven rejections and no explanation", errOn, cold)
	}
	if _, errOff := run(noGate(newFixture(t, Options{})), "f3"); errOff == nil || errOff.Error() != errOn.Error() {
		t.Fatalf("error mismatch:\ngate on:  %v\ngate off: %v", errOn, errOff)
	}
	on, errOn := run(newFixture(t, Options{}), "f3", "f2")
	off, errOff := run(noGate(newFixture(t, Options{})), "f3", "f2")
	if errOn != nil || errOff != nil {
		t.Fatalf("gate on: %v, gate off: %v", errOn, errOff)
	}
	on.Stats.Duration, off.Stats.Duration = 0, 0
	if !reflect.DeepEqual(on, off) {
		t.Fatalf("group explanations diverge:\ngate on:  %+v\ngate off: %+v", on, off)
	}
	if d := gatedChecks.Value() - gated0; d != 0 {
		t.Fatalf("group queries gated %d checks", d)
	}
}

// TestRivalGateActuallyGates guards against the gate silently never
// engaging (every A/B above would pass trivially): a Remove/Powerset
// question on Amazon Lite that burns its whole CHECK budget must settle
// more than half of its rejections without a push, and pay for that
// with at most one reverse push per distinct winner plus one toward u.
func TestRivalGateActuallyGates(t *testing.T) {
	g, r, q, te := liteScenario(t)
	reverse := obs.Default().Counter("emigre_ppr_runs_total",
		"PPR engine runs by engine.", obs.L("engine", "reverse_push"))
	forward := obs.Default().Counter("emigre_ppr_runs_total",
		"PPR engine runs by engine.", obs.L("engine", "forward_push"))
	ex := New(g, r, Options{AllowedEdgeTypes: te, DisableCache: true, MaxTests: 40})
	top, err := r.TopN(q.User, 10)
	if err != nil {
		t.Fatal(err)
	}
	// The first item of the user's top list whose search runs out of budget.
	for _, wni := range top[1:] {
		s, err := ex.newSession(context.Background(), Query{User: q.User, WNI: wni.Node}, Remove)
		if err != nil {
			t.Fatal(err)
		}
		reverse0, forward0 := reverse.Value(), forward.Value()
		if _, err = s.powerset(); !errors.Is(err, ErrBudgetExhausted) {
			continue
		}
		st := s.stats
		if st.Tests != 40 || st.Gated+st.Cold != st.Tests {
			t.Fatalf("stats = %+v: want 40 checks split over gate and cold push", st)
		}
		if 2*st.Gated <= st.Tests {
			t.Fatalf("stats = %+v: the gate settled no more than half of the rejections", st)
		}
		learned := s.gate
		if learned == nil || learned.list[0].node != s.rec {
			t.Fatalf("rival list %+v: want it seeded with rec", learned)
		}
		// rec's column came with the session; every other rival and u cost one push.
		if got := reverse.Value() - reverse0; got > int64(len(learned.list)) {
			t.Fatalf("%d reverse pushes for %d rivals, want at most one per learned winner plus one toward u", got, len(learned.list))
		}
		if got := forward.Value() - forward0; got != int64(st.Cold) {
			t.Fatalf("%d forward pushes for %d cold checks: a gated check must not push", got, st.Cold)
		}
		return
	}
	t.Fatal("no question of the lite scenario's user exhausts a 40-CHECK budget")
}

// TestRivalGateSplitRepeats pins the determinism one CHECK evaluator
// buys, on Amazon Lite questions whose searches settle most rejections
// at the gate: a fresh explainer asked the same question again
// reproduces the whole Stats, the Gated/Cold split included, whether
// the search answers or runs out of budget.
func TestRivalGateSplitRepeats(t *testing.T) {
	g, r, q, te := liteScenario(t)
	top, err := r.TopN(q.User, 4)
	if err != nil {
		t.Fatal(err)
	}
	run := func(wni hin.NodeID, method Method) (Stats, string) {
		ex := New(g, r, Options{AllowedEdgeTypes: te, MaxTests: 40})
		s, err := ex.newSession(context.Background(), Query{User: q.User, WNI: wni}, Remove)
		if err != nil {
			t.Fatal(err)
		}
		if method == Powerset {
			_, err = s.powerset()
		} else {
			_, err = s.exhaustive(true)
		}
		if err != nil {
			return s.stats, err.Error()
		}
		return s.stats, ""
	}
	gated := 0
	for _, wni := range top[1:] {
		for _, method := range []Method{Powerset, Exhaustive} {
			a, errA := run(wni.Node, method)
			b, errB := run(wni.Node, method)
			if a != b || errA != errB {
				t.Fatalf("WNI %d %v: repeat run diverges:\nfirst:  %+v %q\nrepeat: %+v %q", wni.Node, method, a, errA, b, errB)
			}
			gated += a.Gated
		}
	}
	if gated == 0 {
		t.Fatal("no search was gated; the repeat check is vacuous")
	}
}

// coldCtx reports cancellation from the moment the process has decided
// one more CHECK by cold push than at construction: the next poll after
// that is the first one inside the gate's column push.
type coldCtx struct {
	context.Context
	after int64
}

func (c coldCtx) Err() error {
	if coldChecks.Value() > c.after {
		return context.Canceled
	}
	return nil
}

func (c coldCtx) Done() <-chan struct{} { return nil }

// TestRivalGateCancellationMidLearn cancels inside the reverse push that
// learns the first winner: the search ends in a *CanceledError carrying
// what it had committed, and nothing half-learned is published.
func TestRivalGateCancellationMidLearn(t *testing.T) {
	f := newFixture(t, Options{})
	ctx := coldCtx{Context: context.Background(), after: coldChecks.Value()}
	s, err := f.ex.newSession(ctx, Query{User: f.ids["u"], WNI: f.ids["f3"]}, Remove)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.bruteForce()
	var ce *CanceledError
	if !errors.As(err, &ce) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want a *CanceledError wrapping context.Canceled", err)
	}
	if ce.Stats.Tests != 1 || ce.Stats.Gated != 0 || ce.Stats.SearchSpace != 3 {
		t.Fatalf("partial stats = %+v, want the one CHECK that was running", ce.Stats)
	}
	if s.gate != nil {
		t.Fatal("a canceled learn published a rival list")
	}
}

// TestRivalGateLearnsFromHeldColumns pins what learn may push: PPR(·,u)
// once, plus the winner's column only when neither the session (rec)
// nor the vector cache holds it — and a cache lookup that misses
// inserts nothing.
func TestRivalGateLearnsFromHeldColumns(t *testing.T) {
	runs := obs.Default().Counter("emigre_ppr_runs_total",
		"PPR engine runs by engine.", obs.L("engine", "reverse_push"))
	ctx := context.Background()
	for _, cached := range []bool{true, false} {
		f := newFixture(t, Options{DisableCache: !cached})
		s, err := f.ex.newSession(ctx, Query{User: f.ids["u"], WNI: f.ids["f3"]}, Remove)
		if err != nil {
			t.Fatal(err)
		}
		held, fresh := f.ids["p1"], f.ids["f2"]
		want, err := s.reverseColumns(held) // as Alg. 5's target fetch would leave it
		if err != nil {
			t.Fatal(err)
		}
		entries := 0
		if cached {
			entries = f.ex.Cache().Len()
		}
		for _, step := range []struct {
			winner hin.NodeID
			pushes int64 // reverse runs with a cache; one more per fresh winner without
		}{{s.rec, 1}, {held, 0}, {fresh, 1}, {fresh, 0}} {
			wantRuns := step.pushes
			if !cached && step.winner == held {
				wantRuns = 1
			}
			before := runs.Value()
			if err := s.learn(ctx, step.winner); err != nil {
				t.Fatal(err)
			}
			if got := runs.Value() - before; got != wantRuns {
				t.Fatalf("cache=%v: learning %s ran %d reverse pushes, want %d", cached, f.g.Label(step.winner), got, wantRuns)
			}
		}
		rv := s.gate
		if len(rv.list) != 3 || rv.list[0].node != s.rec || rv.list[1].node != held || rv.list[2].node != fresh {
			t.Fatalf("cache=%v: learned %+v, want rec, p1, f2", cached, rv.list)
		}
		if cached && &rv.list[1].col[0] != &want[0][0] {
			t.Fatal("a resident winner must be learned from the cache's own vector")
		}
		if !reflect.DeepEqual(rv.list[1].col, want[0]) {
			t.Fatal("a pushed gate column differs from the cached route's")
		}
		if cached && f.ex.Cache().Len() != entries {
			t.Fatalf("learning changed cache residency: %d entries, had %d", f.ex.Cache().Len(), entries)
		}
	}
}

// BenchmarkRivalGate measures one gate evaluation — every learned rival
// against one counterfactual row on Amazon Lite — and pins it at zero
// allocations.
func BenchmarkRivalGate(b *testing.B) {
	g, r, q, te := liteScenario(b)
	ctx := context.Background()
	ex := New(g, r, Options{AllowedEdgeTypes: te, DisableCache: true})
	s, err := ex.newSession(ctx, q, Remove)
	if err != nil {
		b.Fatal(err)
	}
	var r2 *rec.Recommender
	for _, c := range s.cands {
		if ok, _, gated := checkGated(b, s, []candidate{c}); !ok && gated {
			r2, _ = s.counterfactual([]candidate{c})
			break
		}
	}
	if r2 == nil {
		b.Fatal("no single-edge removal of the lite scenario is gated")
	}
	if allocs := testing.AllocsPerRun(100, func() { s.gated(r2) }); allocs != 0 {
		b.Fatalf("one gate evaluation allocates %v times, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.gated(r2) {
			b.Fatal("verdict flipped")
		}
	}
}

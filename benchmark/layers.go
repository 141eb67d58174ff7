package main

import (
	"bytes"
	"context"
	"errors"
	"math"
	"runtime"
	"time"

	emigre "github.com/why-not-xai/emigre"
	"github.com/why-not-xai/emigre/internal/hin"
	"github.com/why-not-xai/emigre/internal/ppr"
	"github.com/why-not-xai/emigre/internal/pprcache"
)

// Sample counts of the unit-cost measurements. Each metric is a median
// over this many calls on inputs fixed by populationSeed; the per-user
// ones make one call per sampled user.
const (
	datasetRepeats = 3
	graphRepeats   = 3
	walkRepeats    = 30
	reverseCalls   = 100
	cacheCalls     = 1000
	hotRepeats     = 5 // per user, so that the user's vector is in the CPU caches as it is under traffic
	checkCalls     = 20
)

// explainRowBudget bounds the time spent on one of the six Table-5 rows
// (mode x method): a row takes no new question once it is spent, and
// explainCallLimit cuts a single search short. A search cut short is
// recorded at the limit; the row's median is exact as long as fewer
// than half of its searches were.
const (
	explainRowBudget = 1200 * time.Millisecond
	explainCallLimit = 800 * time.Millisecond
)

// sink keeps the row walk's sums alive, so the compiler cannot drop the
// loop that computes them.
var sink float64

// timeIt returns how long f took.
func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// units is the per-layer unit-cost table: what one call into each
// layer's public entry point costs on this machine, outside any server.
type units struct {
	values map[string]metric
	// eng is the engine the measurements ran on, over the generated
	// graph as re-read from its JSON form; users are its sampled users.
	eng   *engine
	users []emigre.NodeID
	// topnHotUs is rec.topn_hot_us per user label: what the recommend
	// handler's own work costs for that user.
	topnHotUs map[string]float64

	// removals holds, per user, 1-5 of their own action edges; forward
	// holds their cold forward push. Later layers reuse both.
	removals [][]emigre.Edge
	forward  []*ppr.PushResult
}

// add records the median of samples under name.
func (u *units) add(name string, samples []float64) {
	u.values[name] = metric{value: median(samples), samples: len(samples)}
}

// measureUnits times every layer below the HTTP handler by calling its
// public functions directly, bottom layer first.
func measureUnits(ctx context.Context, exp *expected) (*units, error) {
	u := &units{values: map[string]metric{}, topnHotUs: map[string]float64{}}
	lite, err := u.measureDataset()
	if err != nil {
		return nil, err
	}
	if err := u.measureGraph(lite); err != nil {
		return nil, err
	}
	if err := u.measurePushes(ctx, exp); err != nil {
		return nil, err
	}
	if err := u.measureCache(ctx); err != nil {
		return nil, err
	}
	if err := u.measureRanking(ctx); err != nil {
		return nil, err
	}
	if err := u.measureSearches(ctx, exp); err != nil {
		return nil, err
	}
	return u, nil
}

// measureDataset times generation and the Lite extraction the way
// emigre-gen runs them, and returns the Lite dataset.
func (u *units) measureDataset() (lite *emigre.Dataset, err error) {
	var genMs, liteMs []float64
	for i := 0; i < datasetRepeats; i++ {
		var ds *emigre.Dataset
		cfg := emigre.DefaultDatasetConfig()
		cfg.Seed = datasetSeed
		genMs = append(genMs, ms(timeIt(func() { ds, err = emigre.GenerateDataset(cfg) })))
		if err != nil {
			return nil, err
		}
		lcfg := emigre.DefaultLiteConfig()
		lcfg.Seed = datasetSeed
		liteMs = append(liteMs, ms(timeIt(func() { lite, u.users, err = ds.Lite(lcfg) })))
		if err != nil {
			return nil, err
		}
	}
	u.add("dataset.generate_ms", genMs)
	u.add("dataset.lite_ms", liteMs)
	return lite, nil
}

// measureGraph times the hin layer - the graph file round trip, the CSR
// snapshot, its traversal, a counterfactual overlay - and builds the
// engine every later measurement runs on.
func (u *units) measureGraph(lite *emigre.Dataset) error {
	var file bytes.Buffer
	if err := lite.Graph.WriteJSON(&file); err != nil {
		return err
	}
	var loadMs []float64
	var g *emigre.Graph
	for i := 0; i < graphRepeats; i++ {
		var err error
		loadMs = append(loadMs, ms(timeIt(func() { g, err = emigre.ReadGraphJSON(bytes.NewReader(file.Bytes())) })))
		if err != nil {
			return err
		}
	}
	u.add("hin.graph_load_ms", loadMs)
	eng, err := newEngine(g)
	if err != nil {
		return err
	}
	u.eng = eng

	var csrMs []float64
	for i := 0; i < graphRepeats; i++ {
		csrMs = append(csrMs, ms(timeIt(func() { hin.NewCSR(eng.rec.View()) })))
	}
	u.add("hin.csr_build_ms", csrMs)

	flat := eng.rec.Flat()
	var walkNs []float64
	for i := 0; i < walkRepeats; i++ {
		edges := 0
		took := timeIt(func() {
			for v := 0; v < flat.NumNodes(); v++ {
				row := flat.OutSlice(hin.NodeID(v))
				edges += len(row)
				for _, h := range row {
					sink += h.Weight
				}
			}
		})
		walkNs = append(walkNs, float64(took)/float64(edges))
	}
	u.add("hin.row_walk_ns_per_edge", walkNs)

	u.removals = make([][]emigre.Edge, len(u.users))
	var overlayUs []float64
	for i, user := range u.users {
		actions := g.OutEdgesOfType(user, eng.opts.AllowedEdgeTypes)
		u.removals[i] = actions[:min(len(actions), 1+i%5)]
		overlayUs = append(overlayUs, us(timeIt(func() {
			var o *hin.Overlay
			if o, err = hin.NewOverlay(g, u.removals[i], nil); err == nil {
				o.RowEdits()
			}
		})))
		if err != nil {
			return err
		}
	}
	u.add("hin.overlay_build_us", overlayUs)
	return nil
}

// measurePushes times the ppr layer: cold forward and reverse pushes,
// and the warm-start repair of a forward push after one edge of the
// user's row is removed.
func (u *units) measurePushes(ctx context.Context, exp *expected) error {
	eng, flat := u.eng, u.eng.rec.Flat()
	params := eng.rec.Config().PPR
	fwd, rev := ppr.NewForwardPush(params), ppr.NewReversePush(params)

	u.forward = make([]*ppr.PushResult, len(u.users))
	var fwdMs, fwdPushes, fwdKB []float64
	var mem runtime.MemStats
	for i, user := range u.users {
		var err error
		runtime.ReadMemStats(&mem)
		before := mem.TotalAlloc
		fwdMs = append(fwdMs, ms(timeIt(func() { u.forward[i], err = fwd.RunContext(ctx, flat, user) })))
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&mem)
		fwdKB = append(fwdKB, float64(mem.TotalAlloc-before)/1024)
		fwdPushes = append(fwdPushes, float64(u.forward[i].Pushes))
	}
	u.add("ppr.forward_cold_ms", fwdMs)
	u.add("ppr.forward_cold_pushes", fwdPushes)
	u.add("ppr.forward_cold_alloc_kb", fwdKB)

	var revMs, revPushes []float64
	for _, p := range scenarioPool(exp)[:reverseCalls] {
		q, err := eng.query(op{User: p.user, WNI: p.wni})
		if err != nil {
			return err
		}
		var res *ppr.PushResult
		revMs = append(revMs, ms(timeIt(func() { res, err = rev.RunContext(ctx, flat, q.WNI) })))
		if err != nil {
			return err
		}
		revPushes = append(revPushes, float64(res.Pushes))
	}
	u.add("ppr.reverse_cold_ms", revMs)
	u.add("ppr.reverse_cold_pushes", revPushes)

	var warmMs []float64
	var scratch ppr.UpdateScratch
	for i, user := range u.users {
		o, err := hin.NewOverlay(eng.g, u.removals[i][:1], nil)
		if err != nil {
			return err
		}
		patched := eng.rec.WithUserPatch(o, user).ScoringView()
		warmMs = append(warmMs, ms(timeIt(func() {
			_, err = fwd.UpdateForEdit(ctx, eng.rec.ScoringView(), patched, u.forward[i], []hin.NodeID{user}, &scratch)
		})))
		if err != nil {
			return err
		}
	}
	u.add("ppr.forward_warm_ms", warmMs)
	return nil
}

// measureCache times a pprcache hit, and what a miss costs on top of a
// fill that itself costs nothing.
func (u *units) measureCache(ctx context.Context) error {
	flat := u.eng.rec.Flat()
	cache := pprcache.New(pprcache.Config{})
	key, ok := pprcache.ForwardKey(flat, ppr.NewForwardPush(u.eng.rec.Config().PPR), u.users[0])
	if !ok {
		return errUnversioned
	}
	fill := func(context.Context) (*ppr.PushResult, error) { return u.forward[0], nil }
	var hitNs, fillUs []float64
	var err error
	for i := 0; i < cacheCalls; i++ {
		k := key
		k.Node = hin.NodeID(i % flat.NumNodes())
		fillUs = append(fillUs, us(timeIt(func() { _, _, err = cache.GetOrComputeResult(ctx, k, fill) })))
		if err != nil {
			return err
		}
	}
	for i := 0; i < cacheCalls; i++ {
		hitNs = append(hitNs, float64(timeIt(func() { _, _, err = cache.GetOrComputeResult(ctx, key, fill) })))
		if err != nil {
			return err
		}
	}
	u.add("pprcache.hit_ns", hitNs)
	u.add("pprcache.fill_overhead_us", fillUs)
	return nil
}

// measureRanking times the rec layer: top-n and rank over a cached
// vector (hot), and top-n including the push (cold).
func (u *units) measureRanking(ctx context.Context) error {
	_, hot := u.eng.cachedExplainer()
	var topHotUs, topColdMs, rankHotUs []float64
	for i, user := range u.users {
		var err error
		topColdMs = append(topColdMs, ms(timeIt(func() { _, err = u.eng.rec.TopNContext(ctx, user, recommendN) })))
		if err != nil {
			return err
		}
		if _, err := hot.TopNContext(ctx, user, recommendN); err != nil { // fills the cache
			return err
		}
		var top []emigre.Scored
		var hotUs []float64
		for rep := 0; rep < hotRepeats; rep++ {
			hotUs = append(hotUs, us(timeIt(func() { top, err = hot.TopNContext(ctx, user, recommendN) })))
			if err != nil {
				return err
			}
		}
		u.topnHotUs[u.eng.g.Label(user)] = median(hotUs)
		topHotUs = append(topHotUs, median(hotUs))
		wni := top[1+i%(recommendN-1)].Node
		rankHotUs = append(rankHotUs, us(timeIt(func() { _, err = hot.RankOfContext(ctx, user, wni) })))
		if err != nil {
			return err
		}
	}
	u.add("rec.topn_hot_us", topHotUs)
	u.add("rec.topn_cold_ms", topColdMs)
	u.add("rec.rankof_hot_us", rankHotUs)
	return nil
}

// measureSearches times the emigre layer: the paper's Table 5 - direct
// searches per mode and method on the workloads' own questions - and
// one cold CHECK of an answer they returned.
func (u *units) measureSearches(ctx context.Context, exp *expected) error {
	ex, _ := u.eng.cachedExplainer()
	var answered []*emigre.Explanation
	for _, mode := range modes {
		questions := explainPopulation(exp, mode, math.MaxInt) // the whole pool
		for m, method := range methods {
			var rowMs []float64
			for start := time.Now(); time.Since(start) < explainRowBudget; {
				next := m + len(methods)*len(rowMs) // methods go round-robin over the questions
				if next >= len(questions) {
					break
				}
				o := questions[next]
				var expl *emigre.Explanation
				var err error
				limited, cancel := context.WithTimeout(ctx, explainCallLimit)
				rowMs = append(rowMs, ms(timeIt(func() { expl, _, err = u.eng.explain(limited, ex, o) })))
				cancel()
				if err != nil && !(errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil) {
					return err
				}
				if expl != nil {
					answered = append(answered, expl)
				}
			}
			u.add("emigre.explain_ms."+mode+"_"+method, rowMs)
		}
	}
	cold := u.eng.coldExplainer()
	var checkMs []float64
	for _, expl := range answered[:min(len(answered), checkCalls)] {
		var ok bool
		var err error
		checkMs = append(checkMs, ms(timeIt(func() { ok, err = cold.VerifyContext(ctx, expl) })))
		if err != nil {
			return err
		}
		if !ok {
			return errUnverified
		}
	}
	u.add("emigre.check_cold_ms", checkMs)
	return nil
}

package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"github.com/why-not-xai/emigre/internal/load"
	"github.com/why-not-xai/emigre/internal/obs"
	"github.com/why-not-xai/emigre/internal/router"
	"github.com/why-not-xai/emigre/internal/server"
)

var (
	errUnversioned = errors.New("the recommender's snapshot carries no version: vectors over it cannot be cached")
	errUnverified  = errors.New("an explanation the direct search returned does not verify")
)

// replayShare is the part of a workload the traced run replays: the
// first ops of the same list the end-to-end run sends in full.
const replayShare = 0.2

// inproc is the in-process counterpart of a stack: server handlers (and
// a router handler on a routed workload) behind loopback listeners,
// each wrapped in the tracer's spans.
type inproc struct {
	front   string
	servers []string
	router  string
	close   []func()
}

func (p *inproc) stop() {
	for i := len(p.close) - 1; i >= 0; i-- {
		p.close[i]()
	}
}

// startInproc builds fresh servers over eng, with emigre-server's
// defaults, and warms them like setUp warms a stack.
func startInproc(ctx context.Context, eng *engine, routed bool, tr *tracer, exp *expected) (*inproc, error) {
	p := &inproc{}
	backends := 1
	if routed {
		backends = 2
	}
	for i := 0; i < backends; i++ {
		srv, err := server.New(server.Config{
			Graph: eng.g, Recommender: eng.rec, Options: eng.opts,
			Metrics: obs.NewRegistry(), Logger: discardLogger,
		})
		if err != nil {
			p.stop()
			return nil, err
		}
		ts := httptest.NewServer(tr.wrap(spanServer, srv.Handler()))
		p.close = append(p.close, ts.Close)
		p.servers = append(p.servers, ts.URL)
	}
	p.front = p.servers[0]
	if routed {
		rt, err := router.New(router.Config{Backends: p.servers}, obs.NewRegistry())
		if err != nil {
			p.stop()
			return nil, err
		}
		ts := httptest.NewServer(tr.wrap(spanRouter, rt.Handler()))
		p.close = append(p.close, rt.Close, ts.Close)
		p.router, p.front = ts.URL, ts.URL
	}
	wrong, err := warmUp(ctx, p.front, exp)
	if err == nil && len(wrong) > 0 {
		err = errors.New(wrong[0])
	}
	if err != nil {
		p.stop()
		return nil, err
	}
	return p, nil
}

// counters sums the counter families of every server (and the router)
// of p. The servers of one process share the process-wide registry the
// PPR engines count into, so that part is read from the first only.
func (p *inproc) counters(ctx context.Context) (map[string]float64, error) {
	sum := map[string]float64{}
	urls := slices.Clone(p.servers)
	if p.router != "" {
		urls = append(urls, p.router)
	}
	for i, url := range urls {
		exp, err := load.Scrape(ctx, url+"/metrics")
		if err != nil {
			return nil, err
		}
		for _, f := range exp.Families {
			if i > 0 && isProcessWide(f.Name) {
				continue
			}
			if f.Type == "counter" || f.Type == "gauge" {
				sum[f.Name] += f.Total()
			}
		}
		if i == 0 {
			if f := exp.Family("emigre_ppr_runs_total"); f != nil {
				for _, engine := range []string{"forward_push", "reverse_push"} {
					v, _ := f.Value("emigre_ppr_runs_total", obs.L("engine", engine))
					sum["runs:"+engine] = v
				}
			}
		}
	}
	return sum, nil
}

func isProcessWide(family string) bool { return strings.HasPrefix(family, "emigre_ppr_") }

// replayed is what one in-process replay of a workload's first ops
// returned: the results, the clients' retries, and the servers'
// counters before and after.
type replayed struct {
	results       []result
	retries       int64
	before, after map[string]float64
}

// replayInproc boots fresh in-process servers, warms them, and sends
// ops the way the end-to-end run does; with tr set, every boundary
// records a span.
func replayInproc(ctx context.Context, eng *engine, w workload, ops []op, tr *tracer, exp *expected) (*replayed, error) {
	p, err := startInproc(ctx, eng, w.routed, tr, exp)
	if err != nil {
		return nil, err
	}
	defer p.stop()
	if w.warm != nil {
		if _, _, _, err := drive(ctx, p.front, false, w.warm(exp), nil); err != nil {
			return nil, err
		}
	}
	tr.reset()
	r := &replayed{}
	if r.before, err = p.counters(ctx); err != nil {
		return nil, err
	}
	if r.results, _, r.retries, err = drive(ctx, p.front, w.open, ops, tr); err != nil {
		return nil, err
	}
	r.after, err = p.counters(ctx)
	return r, err
}

// runTraced produces the per-layer metrics of one workload: the unit
// cost of every layer below the handler, then two in-process replays of
// the workload's first ops - spans off, then on - for the counts, the
// wrappers' taxes and the cost of tracing itself.
func runTraced(ctx context.Context, cfg runConfig, w workload) (*report, error) {
	exp, err := loadExpected(expectedFile)
	if err != nil {
		return nil, err
	}
	rep := &report{workload: w.name, seed: cfg.seed, traced: true}
	units, err := measureUnits(ctx, exp)
	if err != nil {
		return nil, err
	}
	for i, user := range units.users {
		if got := units.eng.g.Label(user); got != exp.Users[i].User {
			return nil, fmt.Errorf("the generated dataset samples %s where %s expects %s", got, expectedFile, exp.Users[i].User)
		}
	}

	ops := w.ops(exp, cfg.seed, cfg.seconds)
	ops = ops[:max(1, int(replayShare*float64(len(ops))))]
	if w.open {
		// The prefix of a schedule is as dense as the whole.
		ops = w.ops(exp, cfg.seed, max(1, int(replayShare*float64(cfg.seconds))))
	}
	plain, err := replayInproc(ctx, units.eng, w, ops, nil, exp)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := replayInproc(ctx, units.eng, w, ops, tr, exp)
	if err != nil {
		return nil, err
	}
	results, before, after := traced.results, traced.before, traced.after
	tr.link()
	if err := tr.write(filepath.Join(cfg.outDir, "trace-"+w.name+".jsonl"), cfg.env); err != nil {
		return nil, err
	}

	// Correctness of the replay, and what it counted.
	rep.attempted = len(ops)
	var explains, answeredExplains, checks, edges float64
	var lates []float64
	for i, r := range results {
		if r.outcome.failed() {
			rep.failed++
		}
		if v := violation(ops[i], r, exp); v != "" {
			rep.violations = append(rep.violations, v)
		}
		if ops[i].Kind == opExplain {
			explains++
			if r.outcome == outAnswered {
				answeredExplains++
				checks += float64(r.checks)
				edges += float64(len(r.edges))
			}
		}
		lates = append(lates, ms(r.late))
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	n := float64(len(ops))
	add := func(name string, value float64, samples int) {
		units.values[name] = metric{value: value, samples: samples}
	}
	unit := func(name string) float64 { return units.values[name].value }
	fwdRuns, revRuns := delta("runs:forward_push"), delta("runs:reverse_push")
	add("ppr.runs_per_op", ratio(delta("emigre_ppr_runs_total"), n), len(ops))
	add("ppr.pushes_per_op", ratio(delta("emigre_ppr_pushes_total"), n), len(ops))
	hits, misses := delta("emigre_pprcache_hits_total"), delta("emigre_pprcache_misses_total")
	add("pprcache.hit_ratio", ratio(hits, hits+misses), int(hits+misses))
	add("pprcache.resident_mb", after["emigre_pprcache_resident_bytes"]/(1<<20), 1)
	add("pprcache.evictions", delta("emigre_pprcache_evictions_total"), 1)
	add("emigre.checks_per_explain", ratio(checks, answeredExplains), int(answeredExplains))
	add("emigre.check_pass_ratio", ratio(answeredExplains, fwdRuns), int(fwdRuns))
	add("emigre.explanation_size_mean", ratio(edges, answeredExplains), int(answeredExplains))

	// The cost model: every cold forward push priced as one cold top-n
	// (the push plus the ranking CHECK does on it), every reverse push
	// at its own unit cost, against the time the server spent on
	// explains. Concurrency, overlay building and search bookkeeping are
	// what is left over.
	serverSpans := tr.durations(spanServer)
	var explainMs float64
	var taxUs []float64
	for i, r := range results {
		span, ok := serverSpans[requestID(i)]
		if !ok {
			continue
		}
		switch {
		case ops[i].Kind == opExplain:
			explainMs += ms(span)
			if r.outcome == outAnswered {
				taxUs = append(taxUs, us(span)-float64(r.durationUS))
			}
		case ops[i].Kind == opRecommend:
			taxUs = append(taxUs, us(span)-units.topnHotUs[ops[i].User])
		}
	}
	model := fwdRuns*unit("rec.topn_cold_ms") + revRuns*unit("ppr.reverse_cold_ms")
	residual := 0.0 // nothing to model on a workload without explains
	if explainMs > 0 {
		residual = 1 - model/explainMs
	}
	add("emigre.model_residual_ratio", residual, int(explains))
	add("server.handler_tax_us", medianOrZero(taxUs), len(taxUs))
	add("server.rejections", delta("emigre_admission_rejections_total"), 1)
	add("server.degraded_responses", delta("emigre_degraded_responses_total"), 1)
	clientTax := durationsUs(tr.selfTimes(spanClient))
	add("client.roundtrip_tax_us", medianOrZero(clientTax), len(clientTax))
	add("client.retries_per_op", ratio(float64(traced.retries), n), len(ops))
	hopTax := durationsUs(tr.selfTimes(spanRouter))
	routed := delta("emigre_router_requests_total")
	add("router.hop_tax_us", medianOrZero(hopTax), len(hopTax))
	add("router.hedge_ratio", ratio(delta("emigre_router_hedges_total"), routed), int(routed))
	add("router.hedge_win_ratio", ratio(delta("emigre_router_hedge_wins_total"), delta("emigre_router_hedges_total")), int(delta("emigre_router_hedges_total")))
	add("router.failovers", delta("emigre_router_failovers_total"), 1)
	add("router.rejections", delta("emigre_router_rejections_total"), 1)
	add("load.late_p95_ms", percentile(lates, 0.95), len(lates))
	add("trace.overhead_ratio",
		ratio(midMean(latenciesMs(ops, results, w.primary)), midMean(latenciesMs(ops, plain.results, w.primary))), len(ops))
	rep.metrics, err = collect(perLayerMetrics, units.values)
	return rep, err
}

// discardLogger silences the in-process servers' request log.
var discardLogger = log.New(io.Discard, "", 0)

// medianOrZero is the median of xs, 0 when there are none: the value of
// a layer's metric on a workload that never enters the layer.
func medianOrZero(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

func durationsUs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = us(d)
	}
	return out
}

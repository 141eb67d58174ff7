package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/why-not-xai/emigre/internal/cli"
)

// setupRepeats is how many times a run boots the stack from nothing.
// setup_s is the median; the last stack serves the timed phase.
const setupRepeats = 3

// lateLimit voids an open-loop run whose generator fell behind its own
// schedule: its latencies would describe the generator, not the system.
const lateLimit = 5 * time.Millisecond

// runConfig is what one run needs besides its workload.
type runConfig struct {
	binDir, outDir string
	seed           int64
	seconds        int
	env            environment
}

// warmUp sends one recommend per sampled user to the server at base -
// which also pays its lazy snapshot build - and returns what is wrong
// with the answers.
func warmUp(ctx context.Context, base string, exp *expected) ([]string, error) {
	c, err := newClient(base, 1)
	if err != nil {
		return nil, err
	}
	var wrong []string
	for _, u := range exp.Users {
		o := op{Kind: opRecommend, User: u.User}
		if v := violation(o, call(ctx, c, o), exp); v != "" {
			wrong = append(wrong, "warm-up "+v)
		}
	}
	return wrong, nil
}

// setUp boots a stack and warms it. It returns the stack, how long all
// of that took, and the warm-up's wrong answers.
func setUp(ctx context.Context, cfg runConfig, w workload, exp *expected) (*stack, time.Duration, []string, error) {
	start := time.Now()
	st, err := startStack(ctx, cfg.binDir, cfg.outDir, w.routed)
	if err != nil {
		return nil, 0, nil, err
	}
	wrong, err := warmUp(ctx, st.front, exp)
	if err != nil {
		st.stop()
		return nil, 0, nil, err
	}
	return st, time.Since(start), wrong, nil
}

// violation checks one result against the expected answer and returns
// a description of what is wrong with it, "" when nothing is.
func violation(o op, r result, exp *expected) string {
	if r.outcome.failed() {
		return fmt.Sprintf("%s: %s: %v", o.key(), r.outcome, r.err)
	}
	want, err := exp.answerFor(o)
	if err != nil {
		return err.Error()
	}
	if !r.answer.equal(want) {
		return fmt.Sprintf("%s: got %q, expected %q", o.key(), r.answer, want)
	}
	if o.Kind == opExplain && r.outcome == outAnswered && !r.verified {
		return fmt.Sprintf("%s: answered without verified=true", o.key())
	}
	return ""
}

// runEndToEnd measures one workload against the real binaries.
func runEndToEnd(ctx context.Context, cfg runConfig, w workload) (*report, error) {
	exp, err := loadExpected(expectedFile)
	if err != nil {
		return nil, err
	}
	ops := w.ops(exp, cfg.seed, cfg.seconds)
	rep := &report{workload: w.name, seed: cfg.seed, attempted: len(ops)}

	var (
		st     *stack
		setups []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			st.stop()
		}
		var took time.Duration
		var wrong []string
		st, took, wrong, err = setUp(ctx, cfg, w, exp)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setups = append(setups, took.Seconds())
		rep.violations = append(rep.violations, wrong...)
	}
	defer st.stop()

	if w.warm != nil {
		warmOps := w.warm(exp)
		results, wall, _, err := drive(ctx, st.front, false, warmOps, nil)
		if err != nil {
			return nil, err
		}
		for i, r := range results {
			if v := violation(warmOps[i], r, exp); v != "" {
				rep.violations = append(rep.violations, "warm pass "+v)
			}
		}
		rep.extra = append(rep.extra, metric{"warm_pass_s", "s", wall.Seconds(), len(warmOps)})
	}
	cpuBefore, err := st.cpuSeconds()
	if err != nil {
		return nil, err
	}
	results, wall, _, err := drive(ctx, st.front, w.open, ops, nil)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("the timed phase was cut short: %w", err)
	}
	cpuAfter, err := st.cpuSeconds()
	if err != nil {
		return nil, err
	}
	rss, err := st.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	st.stop()

	rep.tally = map[outcome]int{}
	answers := make([]answer, len(ops))
	var primary, answered, completed int
	var busy time.Duration
	var sizes, lates []float64
	for i, r := range results {
		rep.tally[r.outcome]++
		answers[i] = r.answer
		if v := violation(ops[i], r, exp); v != "" {
			rep.violations = append(rep.violations, v)
		}
		if r.outcome.failed() {
			rep.failed++
		} else {
			completed++
			busy += r.latency
		}
		if ops[i].Kind == w.primary {
			primary++
			if r.outcome == outAnswered {
				answered++
			}
		}
		if ops[i].Kind == opExplain && r.outcome == outAnswered {
			sizes = append(sizes, float64(len(r.edges)))
		}
		lates = append(lates, ms(r.late))
	}
	rep.digest = digest(ops, answers)
	wrong, err := verifyAnswers(ctx, st.graphPath, ops, results)
	if err != nil {
		return nil, err
	}
	rep.violations = append(rep.violations, wrong...)
	if w.open {
		late := percentile(lates, 0.95)
		if late > ms(lateLimit) {
			rep.violations = append(rep.violations,
				fmt.Sprintf("run void: the generator sent its p95 op %.2f ms late (limit %v)", late, lateLimit))
		}
		rep.extra = append(rep.extra, metric{"load.late_p95_ms", "ms", late, len(lates)})
	}

	lat := latenciesMs(ops, results, w.primary)
	rep.metrics, err = collect(endToEndMetrics, map[string]metric{
		"setup_s":            {value: median(setups), samples: len(setups)},
		"primary_p50_ms":     {value: midMean(lat), samples: len(lat)},
		"primary_p95_ms":     {value: percentile(lat, 0.95), samples: len(lat)},
		"throughput_rps":     {value: throughput(w, cfg.seconds, completed, busy), samples: completed},
		"cpu_ms_per_op":      {value: ratio(1000*(cpuAfter-cpuBefore), float64(len(ops))), samples: len(ops)},
		"server_peak_rss_mb": {value: rss, samples: 1},
		"answered_ratio":     {value: ratio(float64(answered), float64(primary)), samples: primary},
	})
	if err != nil {
		return nil, err
	}
	rep.extra = append(rep.extra,
		metric{"failed_ratio", "ratio", ratio(float64(rep.failed), float64(len(ops))), len(ops)},
		metric{"explanation_size_mean", "edges", mean(sizes), len(sizes)},
		metric{"timed_phase_s", "s", wall.Seconds(), 1},
	)
	return rep, nil
}

// verifyAnswers is the independent half of the correctness check: it
// loads the graph file the servers loaded and, for every distinct
// answered explain, confirms with a cold explainer that applying the
// reported edges makes the Why-Not item the top recommendation, and
// that new_top names that item.
func verifyAnswers(ctx context.Context, graphPath string, ops []op, results []result) ([]string, error) {
	var jobs []int // indexes into ops and results
	seen := map[string]bool{}
	for i, r := range results {
		if ops[i].Kind == opExplain && r.outcome == outAnswered && !seen[ops[i].key()] {
			seen[ops[i].key()] = true
			jobs = append(jobs, i)
		}
	}
	if len(jobs) == 0 {
		return nil, nil
	}
	g, err := cli.LoadGraph(graphPath, "")
	if err != nil {
		return nil, err
	}
	eng, err := newEngine(g)
	if err != nil {
		return nil, err
	}
	cold := eng.coldExplainer()
	var (
		mu    sync.Mutex
		wrong []string
	)
	report := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		wrong = append(wrong, fmt.Sprintf(format, args...))
	}
	forEach(len(jobs), func(j int) {
		o, r := ops[jobs[j]], results[jobs[j]]
		q, err := eng.query(o)
		if err != nil {
			report("%s: %v", o.key(), err)
			return
		}
		if r.newTop != int64(q.WNI) {
			report("%s: new_top is node %d, the Why-Not item is node %d", o.key(), r.newTop, q.WNI)
		}
		ok, err := eng.verify(ctx, cold, o, r.edges)
		if err != nil {
			report("%s: verifying: %v", o.key(), err)
		} else if !ok {
			report("%s: applying the reported edges does not make the item top-1", o.key())
		}
	})
	return wrong, nil
}

// throughput is completed ops per second. A closed loop divides by the
// mean time a caller spent waiting for answers (Little's law: callers /
// mean latency) rather than by the wall clock, which also counts the
// tail in which one caller sits idle while the other waits for a last
// slow answer - a length that depends on the arrival order, not on the
// system. An open loop divides by the span of its schedule.
func throughput(w workload, seconds, completed int, busy time.Duration) float64 {
	if w.open {
		return ratio(float64(completed), float64(seconds))
	}
	return ratio(float64(completed), busy.Seconds()/closedClients)
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

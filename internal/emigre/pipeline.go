package emigre

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/why-not-xai/emigre/internal/fault"
	"github.com/why-not-xai/emigre/internal/hin"
)

// Failpoint sites on the CHECK path. checkSite fires at the head of
// every CHECK evaluation (session.checkOnce); workerSite fires in each
// parallel pipeline worker before its speculative checkOnce. With a
// sleep action either one deterministically stretches CHECK latency —
// the lever the chaos suite and the CI chaos-smoke job use to force the
// server's degradation ladder.
var (
	checkSite  = fault.Register("emigre.check")
	workerSite = fault.Register("emigre.pipeline.worker")
)

// This file is the shared CHECK pipeline behind every search strategy.
//
// The strategies of Algorithms 3-5 (incremental, powerset, exhaustive,
// brute force) differ only in *which* candidate sets they propose and in
// *what order*; the expensive part — build a counterfactual overlay,
// re-run the recommender, compare ranks — is the same CHECK step for all
// of them, and it dominates the total cost (the paper's Table 7 timing
// splits, and PRINCE before it, both measure counterfactual search as
// repeated PPR re-evaluation). The strategies therefore act as pure
// *generators*: each one emits an ordered stream of candidate sets, and
// session.runChecks consumes the stream and verifies it.
//
// Two evaluators sit behind runChecks:
//
//   - the sequential evaluator (Options.Parallelism <= 1, the default)
//     checks each set inline, exactly like the pre-split code;
//   - the parallel evaluator fans sets out to a bounded worker pool but
//     commits results in stream order ("ordered commit"): a worker may
//     verify set #7 before set #3 has finished, but #7's outcome is not
//     acted on until #3..#6 have committed. The first accepted set in
//     stream order wins — not the first to finish — so the returned
//     explanation, the Stats tallies (Tests, CombosExamined) and every
//     budget-exhaustion error are byte-identical to the sequential
//     search. Checks that completed beyond the committed winner are
//     discarded and accounted as speculative waste.
//
// Determinism contract for generators:
//
//   - yield must be called once per candidate set, in exactly the order
//     the sequential search would CHECK them, and the slice must not be
//     mutated after the call (the pool may still hold it);
//   - generator-side work accounting (s.stats.CombosExamined) must be
//     up to date at each yield: the evaluator snapshots the counter per
//     yield and rolls it back to the winning yield's snapshot, so sets
//     enumerated speculatively past the winner leave no trace;
//   - when yield returns false the stream is over (accepted set, budget,
//     cancellation); the generator must return promptly. Its own error —
//     typically a CanceledError from a loop-boundary poll — is surfaced
//     only when the evaluator itself did not decide first.

// checkStream is a strategy rendered as a generator: it yields candidate
// sets in sequential CHECK order until yield returns false or the stream
// is exhausted.
type checkStream func(yield func(cands []candidate) bool) error

// pipelineOutcome is what a stream evaluation produced.
type pipelineOutcome struct {
	// expl is the first accepted candidate set in stream order, nil when
	// the stream was exhausted (or stopped) without an accept.
	expl *Explanation
	// budgetHit reports that the stream reached the MaxTests budget;
	// budgetErr is then the exact error the sequential CHECK would have
	// returned (strategies fold it into their own error message).
	budgetHit bool
	budgetErr error
}

// budgetExhausted builds the CHECK-budget error for a given committed
// test count. Sequential and parallel evaluation must agree on it byte
// for byte: strategy error messages embed it.
func budgetExhausted(tests int) error {
	return fmt.Errorf("%w: %d CHECK invocations", ErrBudgetExhausted, tests)
}

// runChecks evaluates the candidate-set stream produced by gen and
// returns the first accepted set in stream order. The evaluator is
// selected by Options.Parallelism; both produce identical outcomes,
// stats and errors.
func (s *session) runChecks(gen checkStream) (pipelineOutcome, error) {
	if w := s.ex.opts.Parallelism; w > 1 {
		return s.runChecksParallel(w, gen)
	}
	return s.runChecksSeq(gen)
}

// runChecksSeq is the inline evaluator: the pre-split sequential code
// path, shared by every strategy. Parallelism <= 1 degrades to it.
func (s *session) runChecksSeq(gen checkStream) (pipelineOutcome, error) {
	var (
		out     pipelineOutcome
		hardErr error
	)
	genErr := gen(func(cands []candidate) bool {
		s.noteAttempt(cands)
		ok, top, err := s.check(cands)
		if err != nil {
			if errors.Is(err, ErrBudgetExhausted) {
				out.budgetHit = true
				out.budgetErr = err
				return false
			}
			hardErr = err
			return false
		}
		if ok {
			out.expl = s.found(cands, true, top)
			return false
		}
		return true
	})
	if hardErr != nil {
		return out, hardErr
	}
	if genErr != nil && out.expl == nil && !out.budgetHit {
		return out, genErr
	}
	return out, nil
}

// checkJob is one candidate set in flight through the parallel pool.
type checkJob struct {
	// ord is the set's position in the stream (0-based). Commit order.
	ord   int
	cands []candidate
	// combos snapshots s.stats.CombosExamined at yield time, so the
	// committed stats reflect exactly the enumeration work the
	// sequential search would have performed up to this set.
	combos int
}

// checkDone is a worker's verdict on one job.
type checkDone struct {
	checkJob
	ok  bool
	top hin.NodeID
	// gated records whether the rival gate decided the check; the
	// committer folds it into Stats only for committed verdicts.
	gated bool
	err   error
}

// genEnd reports the generator's exit: how many sets it yielded and the
// error (if any) from its own loop-boundary cancellation polls.
type genEnd struct {
	total int
	err   error
}

// runChecksParallel is the speculative evaluator: `workers` goroutines
// verify candidate sets concurrently while the committer applies their
// verdicts strictly in stream order. See the file comment for the
// determinism contract.
func (s *session) runChecksParallel(workers int, gen checkStream) (pipelineOutcome, error) {
	maxTests := s.ex.opts.MaxTests
	m := s.ex.metrics
	m.parallelRuns.Add(1)

	// pctx stops the generator and the workers as soon as the committer
	// has decided; s.ctx cancellation propagates through it.
	pctx, cancel := context.WithCancel(s.ctx)
	defer cancel()

	// The jobs buffer bounds speculation depth: the generator can run at
	// most 2*workers sets ahead of the slowest in-flight check.
	jobs := make(chan checkJob, workers)
	results := make(chan checkDone, workers)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range jobs {
				d := checkDone{checkJob: job}
				switch {
				case job.ord >= maxTests:
					// Budget sentinel: the set exists in the stream, so
					// the sequential search would have *attempted* a
					// CHECK here and hit the budget. No work is done.
					d.err = budgetExhausted(maxTests)
				case pctx.Err() != nil:
					d.err = pctx.Err()
				default:
					m.inflight.Add(1)
					d.ok, d.top, d.gated, d.err = runWorkerCheck(s, pctx, job.cands)
					m.inflight.Add(-1)
				}
				results <- d
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	genc := make(chan genEnd, 1)
	go func() {
		ord := 0
		err := gen(func(cands []candidate) bool {
			s.noteAttempt(cands)
			job := checkJob{ord: ord, cands: cands, combos: s.stats.CombosExamined}
			select {
			case jobs <- job:
				ord++
				// Nothing past the budget sentinel can influence the
				// outcome: stop the stream here.
				return job.ord < maxTests
			case <-pctx.Done():
				return false
			}
		})
		close(jobs)
		genc <- genEnd{total: ord, err: err}
	}()

	var (
		out         pipelineOutcome
		hardErr     error
		decided     bool
		next        int                   // ordinal the committer waits for
		committed   int                   // checks committed == sequential Stats.Tests
		finalCombos = -1                  // CombosExamined to commit (-1: generator's final)
		pending     = map[int]checkDone{} // out-of-order verdicts parked until their turn
		wasted      int64
		genErr      error
		total       = -1
	)

	commit := func(d checkDone) {
		switch {
		case d.err != nil && errors.Is(d.err, ErrBudgetExhausted):
			out.budgetHit = true
			out.budgetErr = d.err
			finalCombos = d.combos
			decided = true
		case d.err != nil:
			// Context or hard error, surfaced at its stream position.
			hardErr = d.err
			finalCombos = d.combos
			decided = true
		case d.ok:
			committed++
			s.tally(d.gated)
			out.expl = s.found(d.cands, true, d.top)
			finalCombos = d.combos
			decided = true
		default:
			committed++
			s.tally(d.gated)
		}
	}

	for results != nil || total < 0 {
		select {
		case d, open := <-results:
			if !open {
				results = nil
				continue
			}
			if decided {
				if d.err == nil {
					wasted++
				}
				continue
			}
			if d.ord != next {
				pending[d.ord] = d
				continue
			}
			commit(d)
			next++
			for !decided {
				nd, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				commit(nd)
				next++
			}
			if decided {
				cancel() // stop the generator and abort in-flight checks
			}
		case ge := <-genc:
			total = ge.total
			genErr = ge.err
			genc = nil
		}
	}

	// Workers and generator have exited; the session is single-threaded
	// again. Completed-but-uncommitted verdicts are speculative waste.
	for _, d := range pending {
		if d.err == nil {
			wasted++
		}
	}
	m.checksCommitted.Add(int64(committed))
	m.speculativeWaste.Add(wasted)
	if t := pipelineRequestStatsFrom(s.ctx); t != nil {
		t.add(int64(committed), wasted)
	}

	s.stats.Tests = committed
	if finalCombos >= 0 {
		// Roll the generator's counter back to the committed yield: the
		// sequential search never enumerated past it.
		s.stats.CombosExamined = finalCombos
	}
	if hardErr != nil {
		return out, wrapCtxErr(hardErr, s.stats)
	}
	if genErr != nil && !decided {
		// The generator snapshotted s.stats when it detected the
		// cancellation, before the committed tallies were folded back in;
		// re-stamp so the error reports the committed work.
		var ce *CanceledError
		if errors.As(genErr, &ce) {
			ce.Stats = s.stats
		}
		return out, genErr
	}
	return out, nil
}

// runWorkerCheck is one speculative CHECK executed on a pipeline worker
// goroutine: the worker failpoint, then the stateless checkOnce, with
// panic containment — workers run outside any HTTP middleware recovery,
// so a panicking engine (or an armed panic failpoint) must become an
// ordinary verdict error at the job's stream position instead of
// killing the process.
func runWorkerCheck(s *session, ctx context.Context, cands []candidate) (ok bool, top hin.NodeID, gated bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			ok, top, gated, err = false, hin.InvalidNode, false, fmt.Errorf("emigre: pipeline worker panicked: %v", p)
		}
	}()
	if err := workerSite.Hit(ctx); err != nil {
		return false, hin.InvalidNode, false, err
	}
	return s.checkOnce(ctx, cands)
}

// pipelineMetrics aggregates explainer-lifetime pipeline counters.
// Shared by every session of one Explainer; all fields are atomics.
type pipelineMetrics struct {
	parallelRuns     atomic.Int64
	checksCommitted  atomic.Int64
	speculativeWaste atomic.Int64
	inflight         atomic.Int64
}

// PipelineStats is a point-in-time snapshot of the parallel CHECK
// pipeline's counters, suitable for a /stats gauge block.
type PipelineStats struct {
	// Workers is the configured Options.Parallelism (0/1 = sequential).
	Workers int `json:"workers"`
	// ParallelRuns counts searches evaluated by the parallel pipeline.
	ParallelRuns int64 `json:"parallel_runs"`
	// ChecksCommitted counts CHECK verdicts applied in stream order —
	// exactly the checks a sequential search would have run.
	ChecksCommitted int64 `json:"checks_committed"`
	// SpeculativeWaste counts completed checks that were discarded
	// because an earlier set in stream order won (or erred) first.
	SpeculativeWaste int64 `json:"speculative_waste"`
	// InflightChecks is the number of checks running right now.
	InflightChecks int64 `json:"inflight_checks"`
}

// PipelineStats returns the explainer's cumulative pipeline counters.
func (e *Explainer) PipelineStats() PipelineStats {
	return PipelineStats{
		Workers:          e.opts.Parallelism,
		ParallelRuns:     e.metrics.parallelRuns.Load(),
		ChecksCommitted:  e.metrics.checksCommitted.Load(),
		SpeculativeWaste: e.metrics.speculativeWaste.Load(),
		InflightChecks:   e.metrics.inflight.Load(),
	}
}

// PipelineRequestStats accumulates per-request pipeline activity.
// Attach one to a context with WithPipelineRequestStats and every
// parallel search run under that context tallies its committed and
// wasted checks — the server's request log uses this the same way it
// uses pprcache.RequestStats. Safe for concurrent use.
type PipelineRequestStats struct {
	committed atomic.Int64
	wasted    atomic.Int64
}

// Committed returns the checks committed in stream order.
func (p *PipelineRequestStats) Committed() int64 { return p.committed.Load() }

// Wasted returns the speculative checks discarded by ordered commit.
func (p *PipelineRequestStats) Wasted() int64 { return p.wasted.Load() }

func (p *PipelineRequestStats) add(committed, wasted int64) {
	p.committed.Add(committed)
	p.wasted.Add(wasted)
}

type pipelineRequestStatsKey struct{}

// WithPipelineRequestStats attaches a per-request tally to ctx.
func WithPipelineRequestStats(ctx context.Context, p *PipelineRequestStats) context.Context {
	return context.WithValue(ctx, pipelineRequestStatsKey{}, p)
}

func pipelineRequestStatsFrom(ctx context.Context) *PipelineRequestStats {
	if ctx == nil {
		return nil
	}
	p, _ := ctx.Value(pipelineRequestStatsKey{}).(*PipelineRequestStats)
	return p
}

// Package eval is the experiment harness that regenerates the paper's
// evaluation (§6): it enumerates (user, Why-Not item) scenarios exactly
// as §6.2 prescribes — for each sampled user, every item of the top-10
// recommendation list except the top-1 becomes one Why-Not question —
// runs the configured explanation methods on every scenario, and
// aggregates the paper's three metrics:
//
//   - success rate (Figures 4 and 5),
//   - runtime, split by found / not found (Table 5),
//   - explanation size (Figure 6).
//
// The renderers in report.go print each table and figure in a layout
// mirroring the paper's.
package eval

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/why-not-xai/emigre/internal/emigre"
	"github.com/why-not-xai/emigre/internal/hin"
	"github.com/why-not-xai/emigre/internal/obs"
	"github.com/why-not-xai/emigre/internal/rec"
)

// MethodSpec names one evaluated configuration (mode + strategy), with
// the label used in the paper's plots.
type MethodSpec struct {
	Name   string
	Mode   emigre.Mode
	Method emigre.Method
}

// PaperMethods returns the eight configurations of §6.2 in the paper's
// presentation order: Add-mode rows first, then Remove-mode rows, then
// the two baselines.
func PaperMethods() []MethodSpec {
	return []MethodSpec{
		{Name: "add_incremental", Mode: emigre.Add, Method: emigre.Incremental},
		{Name: "add_powerset", Mode: emigre.Add, Method: emigre.Powerset},
		{Name: "add_ex", Mode: emigre.Add, Method: emigre.Exhaustive},
		{Name: "remove_incremental", Mode: emigre.Remove, Method: emigre.Incremental},
		{Name: "remove_powerset", Mode: emigre.Remove, Method: emigre.Powerset},
		{Name: "remove_ex", Mode: emigre.Remove, Method: emigre.Exhaustive},
		{Name: "remove_ex_direct", Mode: emigre.Remove, Method: emigre.ExhaustiveDirect},
		{Name: "remove_brute", Mode: emigre.Remove, Method: emigre.BruteForce},
	}
}

// ExtensionMethods returns configurations for the future-work modes
// this library implements beyond the paper: the Combined add/remove
// mode (§6.4) and the Reweight mode (§7), each under the Exhaustive
// strategy.
func ExtensionMethods() []MethodSpec {
	return []MethodSpec{
		{Name: "combined_incremental", Mode: emigre.Combined, Method: emigre.Incremental},
		{Name: "combined_ex", Mode: emigre.Combined, Method: emigre.Exhaustive},
		{Name: "reweight_ex", Mode: emigre.Reweight, Method: emigre.Exhaustive},
	}
}

// BaselineName is the success-rate oracle of Figure 5.
const BaselineName = "remove_brute"

// Scenario is one Why-Not question drawn from a user's recommendation
// list.
type Scenario struct {
	User hin.NodeID
	WNI  hin.NodeID
	// Rec is the top-1 recommendation the question is asked against.
	Rec hin.NodeID
	// Rank is WNI's position in the user's list (2-based: position 1 is
	// the recommendation itself).
	Rank int
	// Actions is the user's out-degree at enumeration time — the
	// activity proxy of the paper's cold-start analysis.
	Actions int
}

// Outcome is the result of one (scenario, method) run.
type Outcome struct {
	Scenario Scenario
	Method   MethodSpec
	// Found reports that the method returned an explanation.
	Found bool
	// Correct reports that the (re-)verified explanation really makes
	// WNI the top-1 item. For CHECK-guarded methods Correct == Found;
	// for the direct baseline it can be false while Found is true.
	Correct bool
	// Size is the explanation size when found.
	Size int
	// Duration is the wall-clock time of the Explain call.
	Duration time.Duration
	// Err records unexpected failures (not "no explanation").
	Err string
}

// Config drives a harness run.
type Config struct {
	// Users to evaluate. Empty means every user node in the graph.
	Users []hin.NodeID
	// TopN bounds the recommendation list; positions 2..TopN become
	// Why-Not questions (paper: 10).
	TopN int
	// MaxScenariosPerUser caps questions per user (0 = all).
	MaxScenariosPerUser int
	// Methods to run. Empty means PaperMethods().
	Methods []MethodSpec
	// Explainer holds the shared emigre options (T_e, budgets, ...).
	Explainer emigre.Options
	// Overrides substitutes per-method options, keyed by MethodSpec
	// name. Typical use: a larger MaxTests budget for remove_brute,
	// whose role as the Figure-5 oracle warrants more search (the paper
	// simply lets it run for 900+ seconds).
	Overrides map[string]emigre.Options
	// Progress, when non-nil, is called after every (scenario, method)
	// pair with the number of completed and total pairs. Calls are
	// serialized even with multiple workers.
	Progress func(done, total int)
	// Workers is how many (scenario, method) pairs are evaluated
	// concurrently; 0 or 1 runs serially. Outcome order — and each
	// outcome's content — is deterministic regardless.
	Workers int
}

// Results aggregates the outcomes of a run.
type Results struct {
	Scenarios []Scenario
	Outcomes  []Outcome
}

// Runner executes evaluation runs over one graph + recommender.
type Runner struct {
	g *hin.Graph
	r *rec.Recommender
}

// NewRunner builds a harness over the given graph and recommender.
func NewRunner(g *hin.Graph, r *rec.Recommender) *Runner {
	return &Runner{g: g, r: r}
}

// Scenarios enumerates the Why-Not questions of §6.2 for the given
// users: every item in each user's top-N list except the first.
func (rn *Runner) Scenarios(users []hin.NodeID, topN, maxPerUser int) ([]Scenario, error) {
	if topN < 2 {
		return nil, fmt.Errorf("eval: TopN must be at least 2, got %d", topN)
	}
	var out []Scenario
	for _, u := range users {
		list, err := rn.r.TopN(u, topN)
		if err != nil {
			if errors.Is(err, rec.ErrNoCandidates) {
				continue
			}
			// Skip users the recommender cannot serve, record nothing.
			continue
		}
		if len(list) < 2 {
			continue
		}
		actions := rn.g.OutDegree(u)
		n := 0
		for rank := 1; rank < len(list); rank++ {
			out = append(out, Scenario{
				User: u, WNI: list[rank].Node, Rec: list[0].Node,
				Rank: rank + 1, Actions: actions,
			})
			n++
			if maxPerUser > 0 && n >= maxPerUser {
				break
			}
		}
	}
	return out, nil
}

// Run executes the configured methods over all scenarios.
func (rn *Runner) Run(cfg Config) (*Results, error) {
	users := cfg.Users
	if len(users) == 0 {
		for v := 0; v < rn.g.NumNodes(); v++ {
			// Any node that can receive recommendations counts as a user
			// — the caller normally passes the sampled users explicitly.
			users = append(users, hin.NodeID(v))
		}
	}
	topN := cfg.TopN
	if topN == 0 {
		topN = 10
	}
	methods := cfg.Methods
	if len(methods) == 0 {
		methods = PaperMethods()
	}
	scenarios, err := rn.Scenarios(users, topN, cfg.MaxScenariosPerUser)
	if err != nil {
		return nil, err
	}
	explainers := make(map[string]*emigre.Explainer, len(methods))
	shared := emigre.New(rn.g, rn.r, cfg.Explainer)
	for _, m := range methods {
		if o, ok := cfg.Overrides[m.Name]; ok {
			explainers[m.Name] = emigre.New(rn.g, rn.r, o)
		} else {
			explainers[m.Name] = shared
		}
	}
	res := &Results{Scenarios: scenarios}
	total := len(scenarios) * len(methods)
	res.Outcomes = make([]Outcome, total)

	type job struct {
		idx int
		sc  Scenario
		m   MethodSpec
	}
	jobs := make([]job, 0, total)
	for i, sc := range scenarios {
		for j, m := range methods {
			jobs = append(jobs, job{idx: i*len(methods) + j, sc: sc, m: m})
		}
	}

	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > total {
		workers = total
	}
	if workers == 1 {
		for done, jb := range jobs {
			res.Outcomes[jb.idx] = runOne(explainers[jb.m.Name], jb.sc, jb.m)
			if cfg.Progress != nil {
				cfg.Progress(done+1, total)
			}
		}
		return res, nil
	}

	// Parallel path: shared explainers only read shared structures.
	var (
		next     atomic.Int64
		done     atomic.Int64
		progress sync.Mutex
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(jobs) {
					return
				}
				jb := jobs[k]
				res.Outcomes[jb.idx] = runOne(explainers[jb.m.Name], jb.sc, jb.m)
				d := int(done.Add(1))
				if cfg.Progress != nil {
					progress.Lock()
					cfg.Progress(d, total)
					progress.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return res, nil
}

func runOne(ex *emigre.Explainer, sc Scenario, m MethodSpec) Outcome {
	out := Outcome{Scenario: sc, Method: m}
	start := time.Now()
	expl, err := ex.ExplainWith(emigre.Query{User: sc.User, WNI: sc.WNI}, m.Mode, m.Method)
	out.Duration = time.Since(start)
	switch {
	case err == nil:
		out.Found = true
		out.Size = expl.Size()
		if expl.Verified {
			out.Correct = true
		} else {
			// Direct baseline: audit the unverified explanation.
			ok, verr := ex.Verify(expl)
			if verr != nil {
				out.Err = verr.Error()
			}
			out.Correct = ok
		}
	case isNoExplanation(err):
		// Found=false, Correct=false: a clean miss.
	default:
		out.Err = err.Error()
	}
	recordOutcome(m, out)
	return out
}

// recordOutcome exports one evaluation result on the process-global
// registry, so a -metrics-out dump and live telemetry share the source
// of truth the paper tables are computed from.
func recordOutcome(m MethodSpec, out Outcome) {
	if !obs.Enabled() {
		return
	}
	result := "miss"
	switch {
	case out.Err != "":
		result = "error"
	case out.Found:
		result = "found"
	}
	obs.Default().Counter("emigre_eval_outcomes_total",
		"Evaluation outcomes by method and result.",
		obs.L("method", m.Name), obs.L("result", result)).Inc()
	obs.Default().Histogram("emigre_eval_explain_seconds",
		"Wall time of one evaluated explanation.", obs.DefBuckets(),
		obs.L("method", m.Name)).Observe(out.Duration.Seconds())
}

func isNoExplanation(err error) bool {
	return errors.Is(err, emigre.ErrNoExplanation)
}

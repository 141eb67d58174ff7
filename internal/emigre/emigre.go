// Package emigre implements EMiGRe, the Why-Not explainer for graph
// recommenders from "Why-Not Explainable Graph Recommender" (Attolou,
// Tzompanaki, Stefanidis, Kotzinos — ICDE 2024).
//
// Given a user u whose current top-1 recommendation is rec, and a
// Why-Not item WNI the user expected instead (Definition 4.1), EMiGRe
// computes a counterfactual set of user-rooted edges A* (Definition
// 4.2) such that applying A* to the graph — removing past actions
// (Remove mode) or adding suggested actions (Add mode) — makes WNI the
// top-1 recommendation.
//
// Three explanation strategies are provided, mirroring §5.2:
//
//   - Incremental (Algorithm 3): greedily commits the most influential
//     candidate edges one at a time — fastest, possibly larger
//     explanations;
//   - Powerset (Algorithm 4): examines candidate combinations in
//     ascending size order — favors minimal explanations;
//   - Exhaustive Comparison (Algorithm 5): compares WNI against every
//     item of the current top-k list via a contribution matrix and a
//     per-target threshold vector — best success rate.
//
// Two baselines from §6.2 complete the set: ExhaustiveDirect (the
// Exhaustive Comparison without the final CHECK — demonstrably returns
// false positives) and BruteForce (subset enumeration over the user's
// past actions — the success-rate and size oracle in Remove mode).
//
// Every non-direct strategy verifies its answer with the paper's CHECK
// step: the candidate edit is applied as a copy-on-write overlay and
// the recommender is re-scored; the edit is an explanation iff the new
// top-1 equals WNI. A counterfactual that provably still loses to the
// winner of an earlier CHECK is rejected without a push; the rest are
// decided by one cold PPR run that stops once its verdict is certain
// (DESIGN.md §3.15).
package emigre

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"github.com/why-not-xai/emigre/internal/fmath"
	"github.com/why-not-xai/emigre/internal/hin"
	"github.com/why-not-xai/emigre/internal/ppr"
	"github.com/why-not-xai/emigre/internal/pprcache"
	"github.com/why-not-xai/emigre/internal/rec"
)

// Mode selects the search space of Definition 4.2.
type Mode int

const (
	// Remove searches among the user's existing outgoing edges (past
	// actions, the set A⁻).
	Remove Mode = iota
	// Add searches among non-existing user-to-item edges (suggested
	// actions, the set A⁺).
	Add
	// Combined searches both spaces at once, mixing removals of past
	// actions with suggested new ones. The paper names this extension
	// as future work for the "out of scope item" failures of §6.4 that
	// neither pure mode can answer.
	Combined
	// Reweight searches among the user's existing edges for weight
	// increases ("You should have rated book A with 5 stars") — the
	// second future-work extension named in §7.
	Reweight
)

// String returns the lower-case mode name.
func (m Mode) String() string {
	switch m {
	case Remove:
		return "remove"
	case Add:
		return "add"
	case Combined:
		return "combined"
	case Reweight:
		return "reweight"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Method selects the explanation strategy.
type Method int

const (
	// Incremental is the runtime-optimized heuristic (Algorithm 3).
	Incremental Method = iota
	// Powerset is the size-optimized heuristic (Algorithm 4).
	Powerset
	// Exhaustive is the Exhaustive Comparison strategy (Algorithm 5).
	Exhaustive
	// ExhaustiveDirect is Exhaustive without the CHECK step — a baseline
	// that may return unverified (possibly wrong) explanations.
	ExhaustiveDirect
	// BruteForce enumerates subsets of the user's actions in ascending
	// size order (Remove mode only).
	BruteForce
)

// String returns the method name used in the paper's plots.
func (m Method) String() string {
	switch m {
	case Incremental:
		return "incremental"
	case Powerset:
		return "powerset"
	case Exhaustive:
		return "exhaustive"
	case ExhaustiveDirect:
		return "exhaustive-direct"
	case BruteForce:
		return "brute-force"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// Errors returned by the explainer.
var (
	// ErrNoExplanation is returned when the selected strategy exhausts
	// its (budgeted) search space without a verified explanation.
	ErrNoExplanation = errors.New("emigre: no explanation found")
	// ErrAlreadyTop is returned when the Why-Not item already is the
	// top-1 recommendation.
	ErrAlreadyTop = errors.New("emigre: item already is the top recommendation")
	// ErrNotWhyNotItem is returned when the Why-Not item violates
	// Definition 4.1 (not an item, or already interacted with).
	ErrNotWhyNotItem = errors.New("emigre: invalid Why-Not item")
	// ErrBruteForceAddMode is returned when BruteForce is requested in
	// Add mode, whose search space the paper deems prohibitive (§6.2).
	ErrBruteForceAddMode = errors.New("emigre: brute force is only available in Remove mode")
	// ErrBudgetExhausted wraps ErrNoExplanation when a search budget
	// (MaxTests, MaxCombinationSize, ...) stopped the search early.
	ErrBudgetExhausted = errors.New("emigre: search budget exhausted")
	// ErrCanceled is returned by the Context entry points when the
	// search was stopped by context cancellation or deadline expiry
	// before its space was exhausted. The concrete error is a
	// *CanceledError carrying the partial Stats; errors.Is also matches
	// the underlying context error (context.Canceled or
	// context.DeadlineExceeded).
	ErrCanceled = errors.New("emigre: search canceled")
)

// CanceledError reports a search interrupted by its context. It wraps
// both ErrCanceled and the context's own error, and carries the work
// statistics accumulated up to the interruption so callers can observe
// how far a timed-out search got.
type CanceledError struct {
	// Stats is the partial per-query work tally at cancellation time.
	Stats Stats
	// Partial, when non-nil, is the best unverified partial explanation
	// the interrupted search can offer: the last candidate set it was
	// about to CHECK (or the single highest-contribution candidate when
	// it never reached a CHECK). It has the same epistemic status as an
	// ExhaustiveDirect result — Verified is false, Partial is true, and
	// NewTop is unknown — and exists so a deadline-squeezed server can
	// degrade to a useful answer instead of a bare timeout.
	Partial *Explanation
	// Cause is the context error that stopped the search.
	Cause error
}

// Error implements error.
func (e *CanceledError) Error() string {
	return fmt.Sprintf("%v after %d checks: %v", ErrCanceled, e.Stats.Tests, e.Cause)
}

// Unwrap exposes ErrCanceled and the context error to errors.Is.
func (e *CanceledError) Unwrap() []error { return []error{ErrCanceled, e.Cause} }

// wrapCtxErr converts a raw context error surfacing from a PPR engine
// or recommender call into a *CanceledError carrying the given partial
// stats. Errors that already are CanceledError, and non-context errors,
// pass through unchanged.
func wrapCtxErr(err error, stats Stats) error {
	if err == nil {
		return nil
	}
	var ce *CanceledError
	if errors.As(err, &ce) {
		return err
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return &CanceledError{Stats: stats, Cause: err}
	}
	return err
}

// Options configures an Explainer.
type Options struct {
	// Mode selects Remove or Add; Method selects the strategy.
	Mode   Mode
	Method Method

	// AllowedEdgeTypes is the paper's T_e: the edge types that may
	// appear in explanations. The zero value allows every type. The
	// paper's experiments restrict T_e to user-item edges.
	AllowedEdgeTypes hin.EdgeTypeSet

	// AddEdgeType and AddEdgeWeight describe the hypothetical edges
	// created in Add mode. AddEdgeWeight defaults to 1.
	AddEdgeType   hin.EdgeTypeID
	AddEdgeWeight float64

	// AddTargetTypes restricts the node types reachable by added edges.
	// Empty means "the recommender's item types".
	AddTargetTypes []hin.NodeTypeID

	// TopKTargets is |T| for the Exhaustive Comparison: WNI must beat
	// the current top-K items. Default 10 (the paper's top-10 list).
	TopKTargets int

	// MaxSearchSpace caps |H|, keeping the highest-contribution
	// candidates (0 = no cap for Incremental; combination strategies
	// default to 16 to bound the powerset).
	MaxSearchSpace int

	// MaxCombinationSize caps the size of candidate combinations for
	// Powerset, Exhaustive and BruteForce. Default 5.
	MaxCombinationSize int

	// MaxTests caps the number of CHECK invocations per query.
	// Default 2000.
	MaxTests int

	// ReweightTo is the target weight of Reweight-mode explanations
	// (e.g. the weight of a 5-star rating). Default 1.
	ReweightTo float64

	// TargetRank relaxes the success criterion of Definition 4.2 from
	// "WNI becomes the top-1" (the default, 1) to "WNI enters the
	// top-k". The candidate-selection heuristics still aim at the top;
	// only the CHECK step and the ErrAlreadyTop validation use the
	// relaxed rank.
	TargetRank int

	// Cache is the PPR-vector cache backing the explainer's reverse
	// columns (the session's PPR(·,rec) and PPR(·,WNI) plus the
	// Exhaustive Comparison's per-target columns) and — through the
	// recommender — its forward vectors. Nil means an explainer-private
	// cache with default bounds; share one pprcache.Cache across the
	// explainer and the serving recommender to get cross-request reuse.
	Cache *pprcache.Cache

	// DisableCache turns vector caching off entirely (A/B comparisons,
	// memory-constrained runs). Explanations are byte-identical with and
	// without the cache; only the work performed differs.
	DisableCache bool
}

// Defaults used when an Options field is zero.
const (
	DefaultTopKTargets        = 10
	DefaultMaxSearchSpace     = 16
	DefaultMaxCombinationSize = 5
	DefaultMaxTests           = 2000
	DefaultAddEdgeWeight      = 1.0
	DefaultReweightTo         = 1.0
)

func (o Options) withDefaults() Options {
	if fmath.Eq(o.AddEdgeWeight, 0) {
		o.AddEdgeWeight = DefaultAddEdgeWeight
	}
	if o.TopKTargets == 0 {
		o.TopKTargets = DefaultTopKTargets
	}
	if o.MaxSearchSpace == 0 {
		o.MaxSearchSpace = DefaultMaxSearchSpace
	}
	if o.MaxCombinationSize == 0 {
		o.MaxCombinationSize = DefaultMaxCombinationSize
	}
	if o.MaxTests == 0 {
		o.MaxTests = DefaultMaxTests
	}
	if fmath.Eq(o.ReweightTo, 0) {
		o.ReweightTo = DefaultReweightTo
	}
	if o.TargetRank == 0 {
		o.TargetRank = 1
	}
	return o
}

// Query is one Why-Not question: "user User expected item WNI — why is
// it not the top recommendation?".
type Query struct {
	User hin.NodeID
	WNI  hin.NodeID
}

// Stats records the work performed while answering one query.
type Stats struct {
	// SearchSpace is |H|, the number of candidate edges considered.
	SearchSpace int
	// CombosExamined counts candidate combinations inspected (before
	// threshold filtering).
	CombosExamined int
	// Tests counts CHECK invocations: every candidate set charged to the
	// MaxTests budget, whichever step decided it. On a search without a
	// hard error, Tests = Gated + Cold.
	Tests int
	// Gated counts CHECKs the rival gate rejected without a push. Like
	// every other tally it is deterministic: the same question on the
	// same graph splits its Tests into Gated and Cold the same way.
	Gated int
	// Cold counts CHECKs decided by one cold PPR run.
	Cold int
	// Duration is the wall-clock time of the Explain call.
	Duration time.Duration
}

// Explanation is a verified Why-Not explanation: applying Edges to the
// graph (removing them in Remove mode, adding them in Add mode) makes
// the Why-Not item the top-1 recommendation.
type Explanation struct {
	Query  Query
	Mode   Mode
	Method Method
	// Group carries the full Why-Not set for group-granularity queries
	// (nil for single-item questions). NewTop is then some member of
	// the group, not necessarily Query.WNI.
	Group []hin.NodeID
	// Edges is A*, the user-rooted edge set of Definition 4.2 — the
	// union of Removals and Additions.
	Edges []hin.Edge
	// Removals are the past actions to undo (all of Edges in Remove
	// mode; empty in Add mode).
	Removals []hin.Edge
	// Additions are the suggested new actions (all of Edges in Add
	// mode; empty in Remove mode).
	Additions []hin.Edge
	// Reweights are existing edges whose Weight field carries the
	// counterfactual new weight (Reweight mode only).
	Reweights []hin.Edge
	// Verified reports whether the CHECK step confirmed the explanation.
	// It is false only for ExhaustiveDirect results and for Partial
	// explanations surfaced by an interrupted search.
	Verified bool
	// Partial marks an unverified best-effort explanation recovered from
	// an interrupted search (CanceledError.Partial): the candidate set
	// the search was evaluating when its deadline hit. NewTop is then
	// hin.InvalidNode — no counterfactual claim is made.
	Partial bool
	// NewTop is the top-1 recommendation after applying Edges (equal to
	// Query.WNI when Verified).
	NewTop hin.NodeID
	// OldTop is the recommendation the explanation displaces.
	OldTop hin.NodeID
	// TargetRank echoes the success criterion the explanation was
	// verified against (1 = top-1).
	TargetRank int
	Stats      Stats
}

// Size returns the number of edges in the explanation.
func (e *Explanation) Size() int { return len(e.Edges) }

// Describe renders the explanation as the natural-language reading used
// in the paper's Figure 1, resolving node labels through g.
func (e *Explanation) Describe(g *hin.Graph) string {
	name := func(v hin.NodeID) string {
		if l := g.Label(v); l != "" {
			return l
		}
		return fmt.Sprintf("node %d", v)
	}
	names := func(edges []hin.Edge) string {
		var items []string
		for _, edge := range edges {
			items = append(items, name(edge.To))
		}
		return strings.Join(items, " and ")
	}
	goal := fmt.Sprintf("your top recommendation would be %s", name(e.Query.WNI))
	if e.TargetRank > 1 {
		goal = fmt.Sprintf("%s would be among your top %d recommendations", name(e.Query.WNI), e.TargetRank)
	}
	switch {
	case len(e.Reweights) > 0:
		var items []string
		for _, edge := range e.Reweights {
			items = append(items, fmt.Sprintf("%s at weight %g", name(edge.To), edge.Weight))
		}
		return fmt.Sprintf("Had you rated %s, %s.", strings.Join(items, " and "), goal)
	case len(e.Removals) > 0 && len(e.Additions) > 0:
		return fmt.Sprintf("Had you not interacted with %s but interacted with %s, %s.",
			names(e.Removals), names(e.Additions), goal)
	case e.Mode == Remove || len(e.Removals) > 0:
		edges := e.Removals
		if len(edges) == 0 {
			edges = e.Edges
		}
		return fmt.Sprintf("Had you not interacted with %s, %s.", names(edges), goal)
	default:
		edges := e.Additions
		if len(edges) == 0 {
			edges = e.Edges
		}
		return fmt.Sprintf("Had you interacted with %s, %s.", names(edges), goal)
	}
}

// Explainer answers Why-Not queries over a fixed graph and recommender.
// An Explainer is safe for concurrent use: sessions only read the graph
// and recommender.
type Explainer struct {
	g     *hin.Graph
	r     *rec.Recommender
	opts  Options
	rev   *ppr.ReversePush
	cache *pprcache.Cache // nil when Options.DisableCache
	// noGate is a test seam, set only from _test.go files: it skips the
	// rival gate, so every CHECK is one cold rank check — the reference
	// the A/B suites compare against.
	noGate bool
	// noCertify is a test seam, set only from _test.go files: every cold
	// CHECK drains its push to ε and ranks it with TopNContext instead of
	// stopping once its verdict is certified — the reference the
	// certificate's A/B compares against.
	noCertify bool
}

// New builds an explainer. The recommender must have been built over g
// (or over a view of it); opts.Mode/Method select the default strategy
// used by Explain.
//
// Unless opts.DisableCache is set, the explainer serves its PPR vectors
// through a pprcache.Cache: opts.Cache when given, else a private one.
// A recommender without its own cache is rebound to the same cache (via
// a copy — the caller's recommender is never mutated) so the session
// baseline forward vector and the CHECK step share it too.
func New(g *hin.Graph, r *rec.Recommender, opts Options) *Explainer {
	o := opts.withDefaults()
	cache := o.Cache
	if o.DisableCache {
		cache = nil
	} else if cache == nil {
		cache = pprcache.New(pprcache.Config{})
	}
	if cache != nil && r.Cache() == nil {
		r = r.WithCache(cache)
	}
	return &Explainer{
		g:     g,
		r:     r,
		opts:  o,
		rev:   ppr.NewReversePush(r.Config().PPR),
		cache: cache,
	}
}

// Options returns the explainer's effective options (defaults applied).
func (e *Explainer) Options() Options { return e.opts }

// Cache returns the PPR-vector cache the explainer serves from, nil
// when caching is disabled.
func (e *Explainer) Cache() *pprcache.Cache { return e.cache }

// Explain answers the query with the explainer's configured mode and
// method.
func (e *Explainer) Explain(q Query) (*Explanation, error) {
	return e.ExplainContext(context.Background(), q)
}

// ExplainContext is Explain with cancellation: the search — including
// every PPR pass it triggers — aborts once ctx is canceled or its
// deadline passes, returning a *CanceledError that wraps ErrCanceled
// and carries the partial Stats.
func (e *Explainer) ExplainContext(ctx context.Context, q Query) (*Explanation, error) {
	return e.ExplainWithContext(ctx, q, e.opts.Mode, e.opts.Method)
}

// ExplainWith answers the query with an explicit mode and method,
// overriding the configured defaults.
func (e *Explainer) ExplainWith(q Query, mode Mode, method Method) (*Explanation, error) {
	return e.ExplainWithContext(context.Background(), q, mode, method)
}

// ExplainWithContext is ExplainWith with cancellation (see
// ExplainContext for the semantics).
func (e *Explainer) ExplainWithContext(ctx context.Context, q Query, mode Mode, method Method) (*Explanation, error) {
	return e.explain(ctx, q, nil, mode, method)
}

// explain runs one attempt. accept, when non-nil, widens the success
// criterion of the CHECK step to "the new top-1 is any member of
// accept" — the group-granularity semantics of ExplainGroup.
func (e *Explainer) explain(ctx context.Context, q Query, accept map[hin.NodeID]bool, mode Mode, method Method) (*Explanation, error) {
	start := time.Now()
	s, err := e.newSession(ctx, q, mode)
	if err != nil {
		return nil, err
	}
	s.accept = accept
	var expl *Explanation
	switch method {
	case Incremental:
		expl, err = s.incremental()
	case Powerset:
		expl, err = s.powerset()
	case Exhaustive:
		expl, err = s.exhaustive(true)
	case ExhaustiveDirect:
		expl, err = s.exhaustive(false)
	case BruteForce:
		if mode != Remove {
			return nil, ErrBruteForceAddMode
		}
		expl, err = s.bruteForce()
	default:
		return nil, fmt.Errorf("emigre: unknown method %v", method)
	}
	if err != nil {
		// Stamp the elapsed time into the partial stats of a canceled
		// search so a 504 handler can report how long it actually ran,
		// and attach the best partial explanation the session tracked so
		// a degraded handler can answer with it.
		var ce *CanceledError
		if errors.As(err, &ce) {
			ce.Stats.Duration = time.Since(start)
			if ce.Partial == nil {
				if p := s.partialExplanation(); p != nil {
					p.Method = method
					p.Stats = ce.Stats
					ce.Partial = p
				}
			}
		}
		return nil, err
	}
	expl.Query = q
	expl.Mode = mode
	expl.Method = method
	expl.OldTop = s.rec
	expl.TargetRank = e.opts.TargetRank
	expl.Stats = s.stats
	expl.Stats.Duration = time.Since(start)
	return expl, nil
}

// CurrentRecommendation returns the top-1 recommendation EMiGRe
// explains against.
func (e *Explainer) CurrentRecommendation(u hin.NodeID) (hin.NodeID, error) {
	return e.r.Recommend(u)
}

// Verify re-runs the CHECK step for an explanation: it applies the
// edges to a fresh overlay and reports whether the Why-Not item becomes
// the top-1 recommendation. It is one cold PPR run — no rival gate, no
// session state shared with the search that produced the explanation —
// which is what makes it an independent judge: the evaluation harness
// audits ExhaustiveDirect results with it.
func (e *Explainer) Verify(expl *Explanation) (bool, error) {
	return e.VerifyContext(context.Background(), expl)
}

// VerifyContext is Verify with cancellation.
func (e *Explainer) VerifyContext(ctx context.Context, expl *Explanation) (bool, error) {
	if err := e.validate(expl.Query); err != nil {
		return false, err
	}
	var cands []candidate
	for _, edge := range expl.Removals {
		cands = append(cands, candidate{edge: edge, op: Remove})
	}
	for _, edge := range expl.Additions {
		cands = append(cands, candidate{edge: edge, op: Add})
	}
	for _, edge := range expl.Reweights {
		cands = append(cands, candidate{edge: edge, op: Reweight})
	}
	if len(cands) == 0 {
		// Explanations built outside the package may only fill Edges;
		// fall back to the explanation's mode.
		for _, edge := range expl.Edges {
			cands = append(cands, candidate{edge: edge, op: expl.Mode})
		}
	}
	s := &session{ex: e, ctx: ctx, q: expl.Query, mode: expl.Mode}
	r2, err := s.counterfactual(cands)
	if err != nil {
		return false, err
	}
	ok, _, err := s.rankCheck(ctx, r2)
	return ok, s.wrapCtx(err)
}

// session carries the per-query state shared by the strategies.
type session struct {
	ex *Explainer
	// ctx cancels the search; the strategies poll it at their loop
	// boundaries and every CHECK, and the PPR engines poll it inside
	// their own iteration loops.
	ctx   context.Context
	q     Query
	mode  Mode
	rec   hin.NodeID // current top-1 recommendation
	view  hin.View   // the β-mixed transition view scores are taken on
	toRec ppr.Vector // PPR(·, rec)
	toWNI ppr.Vector // PPR(·, WNI)
	// held are the reverse columns the session holds — rec's, WNI's and
	// every learned rival's — which sharpen the cold CHECK's certificate.
	held  []rec.Held
	cands []candidate
	// npos counts the positive-contribution candidates, which lead cands,
	// and cands[:sorted] is in final order (candCmp): Add mode sorts only
	// as far as a strategy reads (order), every other mode all of it.
	npos, sorted int
	tau          float64
	stats        Stats
	// accept optionally widens the CHECK success criterion to a set of
	// items (group-granularity queries); nil means {WNI}.
	accept map[hin.NodeID]bool
	// gate holds the winners of this session's rejected CHECKs (gate.go),
	// nil until the first rejection is learned.
	gate *rivals
	// lastAttempt is the most recent candidate set submitted to CHECK,
	// kept so an interrupted search can surface it as an unverified
	// partial explanation (see CanceledError.Partial).
	lastAttempt []candidate
}

// candidate is one entry of the paper's list H: an edge that could be
// removed from (or added to) the user's neighborhood, with its relative
// contribution (Eq. 5 / Eq. 6). op is Remove or Add per candidate so
// the Combined mode can mix both kinds in one list.
type candidate struct {
	edge         hin.Edge
	op           Mode
	contribution float64
	// transDelta is the estimated transition-probability change of a
	// Reweight candidate (unused for other ops).
	transDelta float64
}

// validate rejects queries that violate Definition 4.1.
func (e *Explainer) validate(q Query) error {
	if q.User < 0 || int(q.User) >= e.g.NumNodes() || q.WNI < 0 || int(q.WNI) >= e.g.NumNodes() {
		return fmt.Errorf("%w: node out of range", ErrNotWhyNotItem)
	}
	if !e.r.IsCandidate(q.User, q.WNI) {
		return fmt.Errorf("%w: node %d is not a recommendable item for user %d (Definition 4.1 requires an item the user has not interacted with)",
			ErrNotWhyNotItem, q.WNI, q.User)
	}
	return nil
}

func (e *Explainer) newSession(ctx context.Context, q Query, mode Mode) (*session, error) {
	if err := e.validate(q); err != nil {
		return nil, err
	}
	// The user's score vector is the session's one forward push — a cache
	// hit on the vector /recommend stored — and the baseline ranking is
	// read off it. (WNI is a candidate, so the ranking is never empty.)
	base, err := e.r.ScoresContext(ctx, q.User)
	if err != nil {
		return nil, wrapCtxErr(err, Stats{})
	}
	current := e.r.TopOf(q.User, base)
	if current == q.WNI {
		return nil, fmt.Errorf("%w: item %d", ErrAlreadyTop, q.WNI)
	}
	if k := e.opts.TargetRank; k > 1 {
		if rank := e.r.RankWithin(q.User, q.WNI, base, k); rank > 0 {
			return nil, fmt.Errorf("%w: item %d already at rank %d ≤ target %d", ErrAlreadyTop, q.WNI, rank, k)
		}
	}
	s := &session{ex: e, ctx: ctx, q: q, mode: mode, rec: current, view: e.r.Flat()}
	cols, err := s.reverseColumns(current, q.WNI) // one graph pass for the pair
	if err != nil {
		return nil, wrapCtxErr(err, Stats{})
	}
	s.toRec, s.toWNI = cols[0], cols[1]
	s.held = []rec.Held{{Node: current, Col: s.toRec}, {Node: q.WNI, Col: s.toWNI}}
	if err := s.defineSearchSpace(); err != nil {
		return nil, err
	}
	return s, nil
}

// splitOps partitions a candidate selection into removal, addition and
// reweight edge lists according to each candidate's op.
func splitOps(cands []candidate) (removals, additions, reweights []hin.Edge) {
	for _, c := range cands {
		switch c.op {
		case Add:
			additions = append(additions, c.edge)
		case Reweight:
			reweights = append(reweights, c.edge)
		default:
			removals = append(removals, c.edge)
		}
	}
	return removals, additions, reweights
}

// reverseColumns returns PPR(·, t) for every t of ts over the session's
// scoring view, the missing columns drained in one blocked reverse push
// and served through the explainer's vector cache when one is attached
// (the CSR snapshot carries the β-mixed view's version, so a column is
// reused by every later request over the same graph, bit-identical
// whatever batch computed it). The vectors are shared: do not mutate.
func (s *session) reverseColumns(ts ...hin.NodeID) ([]ppr.Vector, error) {
	if c := s.ex.cache; c != nil && len(ts) > 0 {
		if k, ok := pprcache.ReverseKey(s.view, s.ex.rev, ts[0]); ok {
			keys := make([]pprcache.Key, len(ts))
			for i, t := range ts {
				keys[i], keys[i].Node = k, t
			}
			return c.GetOrComputeMany(s.ctx, keys, func(cctx context.Context, missing []int) ([]ppr.Vector, error) {
				need := make([]hin.NodeID, len(missing))
				for j, i := range missing {
					need[j] = ts[i]
				}
				return s.ex.rev.ToTargets(cctx, s.view, need)
			})
		}
	}
	return s.ex.rev.ToTargets(s.ctx, s.view, ts)
}

// canceled reports a pending cancellation of the session's context as
// a *CanceledError carrying the partial stats; nil when the search may
// continue. Strategies poll it at their loop boundaries.
func (s *session) canceled() error {
	if s.ctx == nil {
		return nil
	}
	if err := s.ctx.Err(); err != nil {
		return &CanceledError{Stats: s.stats, Cause: err}
	}
	return nil
}

// wrapCtx tags a context error that surfaced from a nested PPR or
// recommender call with the session's partial stats.
func (s *session) wrapCtx(err error) error { return wrapCtxErr(err, s.stats) }

// check is the paper's CHECK/TEST step: cancellation poll, CHECK budget,
// then overlay, patched recommender, rival gate and — when the gate
// cannot reject — the cold rank comparison. Rejections, the overwhelming
// majority of any CHECK stream, end at the gate for a few dot products or
// at the cold push, which teaches the gate its winner. Every CHECK counts
// toward Tests and, once decided, toward Gated or Cold.
func (s *session) check(cands []candidate) (bool, hin.NodeID, error) {
	if err := s.canceled(); err != nil {
		return false, hin.InvalidNode, err
	}
	if s.stats.Tests >= s.ex.opts.MaxTests {
		return false, hin.InvalidNode, budgetExhausted(s.stats.Tests)
	}
	s.stats.Tests++
	// The CHECK seam: one failpoint hit per evaluation.
	if err := checkSite.Hit(s.ctx); err != nil {
		return false, hin.InvalidNode, s.wrapCtx(err)
	}
	r2, err := s.counterfactual(cands)
	if err != nil {
		return false, hin.InvalidNode, err
	}
	if s.gated(r2) {
		record(gatedChecks)
		s.stats.Gated++
		return false, hin.InvalidNode, nil
	}
	ok, top, err := s.rankCheck(s.ctx, r2)
	if err != nil {
		return false, hin.InvalidNode, s.wrapCtx(err)
	}
	record(coldChecks)
	if !ok {
		if err := s.learn(s.ctx, top); err != nil {
			return false, hin.InvalidNode, s.wrapCtx(err)
		}
	}
	s.stats.Cold++
	return ok, top, nil
}

// counterfactual applies the candidate selection as an overlay and
// binds the recommender to it. Counterfactuals only touch the user's
// outgoing row, so the recommender scores over a one-row patch of its
// flat snapshot instead of re-flattening the overlay.
func (s *session) counterfactual(cands []candidate) (*rec.Recommender, error) {
	removals, additions, reweights := splitOps(cands)
	// A reweight is expressed as removing the typed edge and re-adding
	// it with the counterfactual weight.
	removals = append(removals, reweights...)
	additions = append(additions, reweights...)
	o, err := hin.NewOverlay(s.ex.g, removals, additions)
	if err != nil {
		return nil, fmt.Errorf("emigre: building counterfactual overlay: %w", err)
	}
	return s.ex.r.WithUserPatch(o, s.q.User), nil
}

// rankCheck re-runs the recommender over the counterfactual and reports
// whether an accepted item reached the target rank, plus the new top-1.
// The push stops as soon as both are certain (rec.TopDecided, DESIGN.md
// §3.15), so the verdict and the top-1 are the ones a push drained to ε
// gives; the noCertify seam drains it.
func (s *session) rankCheck(ctx context.Context, r2 *rec.Recommender) (bool, hin.NodeID, error) {
	k := s.ex.opts.TargetRank
	var list []hin.NodeID
	var err error
	if s.ex.noCertify {
		var top []rec.Scored
		top, err = r2.TopNContext(ctx, s.q.User, k)
		for _, sc := range top {
			list = append(list, sc.Node)
		}
	} else {
		list, err = r2.TopDecided(ctx, s.q.User, k, s.held)
	}
	if err != nil {
		if errors.Is(err, rec.ErrNoCandidates) {
			return false, hin.InvalidNode, nil
		}
		return false, hin.InvalidNode, err
	}
	for _, v := range list {
		if v == s.q.WNI || s.accept[v] { // WNI or a member of the group accept set
			return true, list[0], nil
		}
	}
	return false, list[0], nil
}

// gapFlipped reports whether a running gap estimate has crossed zero,
// with a relative tolerance so that floating-point residue from
// summation order (τ − Σc can land at ±1e-20 when every candidate is
// committed) does not suppress the CHECK step.
func (s *session) gapFlipped(tau float64) bool {
	return tau <= 1e-12*(1+math.Abs(s.tau))
}

// noteAttempt records the candidate set about to be CHECKed so a later
// interruption can surface it via partialExplanation. The set is copied:
// generators may reuse or extend their yield buffers.
func (s *session) noteAttempt(cands []candidate) {
	s.lastAttempt = append(s.lastAttempt[:0], cands...)
}

// partialExplanation renders the session's best-effort answer at
// interruption time: the last candidate set submitted to CHECK, or —
// when the search died before its first CHECK — the single
// highest-contribution candidate of the search space. Nil when the
// session has nothing defensible to offer. The result is unverified
// (same epistemic status as ExhaustiveDirect) and marked Partial; the
// caller stamps Method and Stats.
func (s *session) partialExplanation() *Explanation {
	cands := s.lastAttempt
	if len(cands) == 0 {
		if len(s.cands) == 0 {
			return nil
		}
		cands = s.cands[:1]
	}
	p := s.found(cands, false, hin.InvalidNode)
	p.Partial = true
	p.Query = s.q
	p.Mode = s.mode
	p.OldTop = s.rec
	p.TargetRank = s.ex.opts.TargetRank
	p.Stats = s.stats
	return p
}

func (s *session) found(cands []candidate, verified bool, newTop hin.NodeID) *Explanation {
	removals, additions, reweights := splitOps(cands)
	edges := make([]hin.Edge, 0, len(cands))
	edges = append(edges, removals...)
	edges = append(edges, additions...)
	edges = append(edges, reweights...)
	return &Explanation{
		Edges:     edges,
		Removals:  removals,
		Additions: additions,
		Reweights: reweights,
		Verified:  verified,
		NewTop:    newTop,
	}
}

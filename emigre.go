// Package emigre is the public API of the EMiGRe library — a from-
// scratch Go implementation of "Why-Not Explainable Graph Recommender"
// (Attolou, Tzompanaki, Stefanidis, Kotzinos — ICDE 2024).
//
// EMiGRe answers Why-Not questions over a graph-based recommender:
// given a user and an item they expected to see recommended, it
// computes a counterfactual set of user-rooted edges whose removal from
// — or addition to — the interaction graph makes that item the top-1
// recommendation.
//
// The package re-exports the library's building blocks:
//
//   - the heterogeneous information network (Graph, Overlay, View);
//   - Personalized PageRank engines (ForwardPushEngine and
//     ReversePushEngine, plus PowerEngine as the dense reference);
//   - the PPR recommender (Recommender);
//   - the EMiGRe explainer (Explainer) with its Remove/Add modes and
//     Incremental/Powerset/Exhaustive strategies plus the
//     ExhaustiveDirect and BruteForce baselines;
//   - the PRINCE-style Why explainer used as a contrast baseline
//     (PrinceExplainer);
//   - the synthetic Amazon dataset generator and the paper's
//     running-example books graph (GenerateDataset, NewBooks);
//   - the evaluation harness that regenerates the paper's tables and
//     figures (EvalRunner).
//
// Quick start:
//
//	books, _ := emigre.NewBooks()
//	r, _ := emigre.NewRecommender(books.Graph, emigre.RecommenderConfig{
//	    PPR: emigre.DefaultPPRParams(), Beta: 1,
//	    ItemTypes: []emigre.NodeTypeID{books.Types.Item},
//	})
//	ex := emigre.NewExplainer(books.Graph, r, emigre.Options{
//	    AllowedEdgeTypes: books.ActionEdgeTypes(),
//	    AddEdgeType:      books.Types.Rated,
//	})
//	expl, _ := ex.ExplainWith(
//	    emigre.Query{User: books.Paul, WNI: books.HarryPotter},
//	    emigre.Remove, emigre.Powerset)
//	fmt.Println(expl.Describe(books.Graph))
//	// Had you not interacted with C and Candide, your top
//	// recommendation would be Harry Potter.
package emigre

import (
	"context"
	"io"

	"github.com/why-not-xai/emigre/internal/dataset"
	core "github.com/why-not-xai/emigre/internal/emigre"
	"github.com/why-not-xai/emigre/internal/eval"
	"github.com/why-not-xai/emigre/internal/hin"
	"github.com/why-not-xai/emigre/internal/ppr"
	"github.com/why-not-xai/emigre/internal/pprcache"
	"github.com/why-not-xai/emigre/internal/prince"
	"github.com/why-not-xai/emigre/internal/rec"
)

// Graph substrate (Definition 3.1): a directed, weighted,
// typed multigraph with copy-on-write counterfactual overlays.
type (
	// Graph is a mutable heterogeneous information network.
	Graph = hin.Graph
	// View is the read-only graph interface shared by Graph, Overlay
	// and CSR snapshots.
	View = hin.View
	// Overlay is a counterfactual view applying edge edits to a base
	// view without copying it.
	Overlay = hin.Overlay
	// NodeID identifies a node.
	NodeID = hin.NodeID
	// NodeTypeID identifies a registered node type.
	NodeTypeID = hin.NodeTypeID
	// EdgeTypeID identifies a registered edge type.
	EdgeTypeID = hin.EdgeTypeID
	// Edge is a directed, typed, weighted edge.
	Edge = hin.Edge
	// HalfEdge is an adjacency-list entry.
	HalfEdge = hin.HalfEdge
	// EdgeTypeSet restricts explanations to certain edge types (T_e).
	EdgeTypeSet = hin.EdgeTypeSet
	// TypeRegistry maps type names to IDs.
	TypeRegistry = hin.TypeRegistry
	// TypeDegreeStats is one row of the paper's Table 4.
	TypeDegreeStats = hin.TypeDegreeStats
)

// NewGraph returns an empty heterogeneous information network.
func NewGraph() *Graph { return hin.NewGraph() }

// NewOverlay builds a counterfactual view of base with the given edge
// removals and additions.
func NewOverlay(base View, removals, additions []Edge) (*Overlay, error) {
	return hin.NewOverlay(base, removals, additions)
}

// NewEdgeTypeSet builds an edge-type restriction set; with no arguments
// every type is allowed.
func NewEdgeTypeSet(types ...EdgeTypeID) EdgeTypeSet { return hin.NewEdgeTypeSet(types...) }

// DegreeStats computes per-node-type degree statistics (Table 4).
func DegreeStats(g View) []TypeDegreeStats { return hin.DegreeStats(g) }

// ReadGraphJSON parses a graph written by Graph.WriteJSON.
func ReadGraphJSON(r io.Reader) (*Graph, error) { return hin.ReadJSON(r) }

// ReadGraphTSV parses a graph written by Graph.WriteTSV.
func ReadGraphTSV(r io.Reader) (*Graph, error) { return hin.ReadTSV(r) }

// InvalidNode is returned by failed node lookups.
const InvalidNode = hin.InvalidNode

// Personalized PageRank (Eq. 1).
type (
	// PPRParams holds the PPR hyper-parameters (α, ε, ...).
	PPRParams = ppr.Params
	// PPRVector is a dense score vector indexed by NodeID.
	PPRVector = ppr.Vector
	// PowerEngine is the exact dense reference engine.
	PowerEngine = ppr.Power
	// ForwardPushEngine is Forward Local Push (Eq. 3).
	ForwardPushEngine = ppr.ForwardPush
	// ReversePushEngine is Reverse Local Push (Eq. 4).
	ReversePushEngine = ppr.ReversePush
)

// DefaultPPRParams returns the paper's hyper-parameters: α = 0.15,
// ε = 2.7e-8.
func DefaultPPRParams() PPRParams { return ppr.DefaultParams() }

// NewPowerEngine returns the dense power-iteration engine.
func NewPowerEngine(p PPRParams) *PowerEngine { return ppr.NewPower(p) }

// NewForwardPushEngine returns the Forward Local Push engine.
func NewForwardPushEngine(p PPRParams) *ForwardPushEngine { return ppr.NewForwardPush(p) }

// NewReversePushEngine returns the Reverse Local Push engine.
func NewReversePushEngine(p PPRParams) *ReversePushEngine { return ppr.NewReversePush(p) }

// Recommender (Eq. 2).
type (
	// Recommender ranks items by PPR, excluding the user's neighborhood.
	Recommender = rec.Recommender
	// RecommenderConfig parameterizes a Recommender.
	RecommenderConfig = rec.Config
	// Scored pairs an item with its personalized score.
	Scored = rec.Scored
)

// NewRecommender builds a recommender over g.
func NewRecommender(g View, cfg RecommenderConfig) (*Recommender, error) { return rec.New(g, cfg) }

// PPR-vector caching (internal/pprcache): a versioned, sharded,
// singleflight-deduplicating cache shared between the recommender's
// forward vectors and the explainer's reverse columns. Attach one with
// Recommender.SetCache and/or Options.Cache.
type (
	// PPRCache is the shared vector cache.
	PPRCache = pprcache.Cache
	// PPRCacheConfig bounds a PPRCache (entries, bytes, shards).
	PPRCacheConfig = pprcache.Config
	// PPRCacheStats is a point-in-time snapshot of cache counters.
	PPRCacheStats = pprcache.Stats
)

// NewPPRCache builds a vector cache; zero fields use the package
// defaults (4096 entries, 256 MiB, 16 shards).
func NewPPRCache(cfg PPRCacheConfig) *PPRCache { return pprcache.New(cfg) }

// Default PPR-cache bounds, re-exported for flag defaults.
const (
	DefaultPPRCacheEntries = pprcache.DefaultMaxEntries
	DefaultPPRCacheBytes   = int64(pprcache.DefaultMaxBytes)
)

// DefaultRecommenderConfig returns the paper's setting (α = 0.15,
// ε = 2.7e-8, β = 0.5) for the given recommendable item types.
func DefaultRecommenderConfig(itemTypes ...NodeTypeID) RecommenderConfig {
	return rec.DefaultConfig(itemTypes...)
}

// EMiGRe explainer (the paper's contribution).
type (
	// Explainer answers Why-Not queries.
	Explainer = core.Explainer
	// Options configures an Explainer.
	Options = core.Options
	// Query is one Why-Not question.
	Query = core.Query
	// Explanation is a Why-Not explanation (Definition 4.2).
	Explanation = core.Explanation
	// Mode selects the Remove or Add search space.
	Mode = core.Mode
	// Method selects the explanation strategy.
	Method = core.Method
	// ExplainStats records the work performed per query.
	ExplainStats = core.Stats
	// GroupQuery is a Why-Not question at the set granularity of §4
	// ("why is none of these items recommended?"). Use
	// Explainer.ExplainGroup / Explainer.ExplainCategory.
	GroupQuery = core.GroupQuery
)

// ErrEmptyGroup reports a group query with no valid Why-Not item.
var ErrEmptyGroup = core.ErrEmptyGroup

// ErrNoCandidates reports a user with no recommendable item left: every
// item is already in the user's out-neighbourhood.
var ErrNoCandidates = rec.ErrNoCandidates

// Modes and methods.
const (
	// Remove explains with the user's past actions (A⁻).
	Remove = core.Remove
	// Add explains with suggested new actions (A⁺).
	Add = core.Add
	// Combined mixes removals of past actions with suggested new ones —
	// the extension the paper names as future work for §6.4's
	// out-of-scope failures.
	Combined = core.Combined
	// Reweight raises the weight of existing actions ("you should have
	// rated this 5 stars") — the other future-work extension of §7.
	Reweight = core.Reweight

	// Incremental is the runtime-optimized heuristic (Algorithm 3).
	Incremental = core.Incremental
	// Powerset is the size-optimized heuristic (Algorithm 4).
	Powerset = core.Powerset
	// Exhaustive is the Exhaustive Comparison (Algorithm 5).
	Exhaustive = core.Exhaustive
	// ExhaustiveDirect is Exhaustive without the CHECK step.
	ExhaustiveDirect = core.ExhaustiveDirect
	// BruteForce enumerates action subsets (Remove mode only).
	BruteForce = core.BruteForce
)

// Explainer errors.
var (
	// ErrNoExplanation reports an exhausted search space.
	ErrNoExplanation = core.ErrNoExplanation
	// ErrBudgetExhausted is joined to ErrNoExplanation when a search
	// budget (Options.MaxTests, ...) stopped the search before its space
	// was exhausted: "not found in time", not "proved absent".
	ErrBudgetExhausted = core.ErrBudgetExhausted
	// ErrAlreadyTop reports that the Why-Not item already tops the list.
	ErrAlreadyTop = core.ErrAlreadyTop
	// ErrNotWhyNotItem reports a Definition-4.1 violation.
	ErrNotWhyNotItem = core.ErrNotWhyNotItem
	// ErrCanceled reports a search stopped by context cancellation or
	// deadline expiry (returned by the *Context entry points, e.g.
	// Explainer.ExplainContext, as a *CanceledError).
	ErrCanceled = core.ErrCanceled
)

// CanceledError is the concrete error behind ErrCanceled: it wraps the
// context's own error and carries the partial ExplainStats accumulated
// before the search was interrupted.
type CanceledError = core.CanceledError

// NewExplainer builds a Why-Not explainer over g and its recommender.
func NewExplainer(g *Graph, r *Recommender, opts Options) *Explainer {
	return core.New(g, r, opts)
}

// Failure diagnosis (the §6.4 meta-explanations).
type (
	// Diagnosis is a meta-explanation for an unanswerable Why-Not
	// question.
	Diagnosis = core.Diagnosis
	// FailureKind classifies a diagnosis.
	FailureKind = core.FailureKind
)

// Failure kinds.
const (
	// FailureNone: the question is answerable in the probed mode.
	FailureNone = core.FailureNone
	// FailureColdStart: the user has too few past actions.
	FailureColdStart = core.FailureColdStart
	// FailureOutOfScope: another mode answers the question.
	FailureOutOfScope = core.FailureOutOfScope
	// FailurePopularItem: the displaced recommendation is powered by
	// other users' actions (Figure 7).
	FailurePopularItem = core.FailurePopularItem
)

// PRINCE baseline (Why explanations for existing recommendations).
type (
	// PrinceExplainer computes counterfactuals for existing
	// recommendations.
	PrinceExplainer = prince.Explainer
	// PrinceOptions configures a PrinceExplainer.
	PrinceOptions = prince.Options
	// CFE is a verified counterfactual explanation.
	CFE = prince.CFE
)

// NewPrinceExplainer builds a PRINCE-style Why explainer.
func NewPrinceExplainer(g *Graph, r *Recommender, opts PrinceOptions) *PrinceExplainer {
	return prince.New(g, r, opts)
}

// Dataset substrate.
type (
	// DatasetConfig parameterizes the synthetic Amazon generator.
	DatasetConfig = dataset.Config
	// Dataset is a preprocessed dataset graph with its node inventory.
	Dataset = dataset.Amazon
	// DatasetTypes bundles the registered node and edge types.
	DatasetTypes = dataset.Types
	// LiteConfig parameterizes the Amazon-Lite sampling (§6.1).
	LiteConfig = dataset.LiteConfig
	// Books is the Figure-1 running-example graph.
	Books = dataset.Books
)

// DefaultDatasetConfig returns the full paper-scale generator
// configuration.
func DefaultDatasetConfig() DatasetConfig { return dataset.DefaultConfig() }

// SmallDatasetConfig returns a scaled-down configuration for quick
// experiments.
func SmallDatasetConfig() DatasetConfig { return dataset.SmallConfig() }

// DefaultLiteConfig returns the paper's Amazon-Lite sampling
// parameters (100 users with 10-100 actions, 4 hops).
func DefaultLiteConfig() LiteConfig { return dataset.DefaultLiteConfig() }

// GenerateDataset synthesizes and preprocesses an Amazon-like dataset.
func GenerateDataset(cfg DatasetConfig) (*Dataset, error) { return dataset.Generate(cfg) }

// RawDataset is the un-preprocessed synthetic dataset (items with
// categories, rating records with review text). It round-trips through
// CSV via its Write*CSV methods and ReadRawDatasetCSV, and becomes a
// graph through BuildDatasetGraph.
type RawDataset = dataset.Raw

// GenerateRawDataset produces the raw synthetic records before
// preprocessing.
func GenerateRawDataset(cfg DatasetConfig) (*RawDataset, error) { return dataset.GenerateRaw(cfg) }

// BuildDatasetGraph applies the paper's §6.1 preprocessing to raw
// records.
func BuildDatasetGraph(raw *RawDataset) (*Dataset, error) { return dataset.BuildGraph(raw) }

// ReadRawDatasetCSV rebuilds raw records from the items and ratings
// CSV files written by RawDataset.WriteItemsCSV / WriteRatingsCSV.
func ReadRawDatasetCSV(cfg DatasetConfig, items, ratings io.Reader) (*RawDataset, error) {
	return dataset.ReadRawCSV(cfg, items, ratings)
}

// NewBooks builds the paper's running-example books graph.
func NewBooks() (*Books, error) { return dataset.NewBooks() }

// Evaluation harness (§6).
type (
	// EvalRunner executes evaluation runs.
	EvalRunner = eval.Runner
	// EvalConfig drives a harness run.
	EvalConfig = eval.Config
	// EvalResults aggregates outcomes.
	EvalResults = eval.Results
	// EvalMethodSpec names one evaluated (mode, method) configuration.
	EvalMethodSpec = eval.MethodSpec
	// EvalScenario is one Why-Not question drawn from a user's list.
	EvalScenario = eval.Scenario
	// EvalMethodStats aggregates one method's results.
	EvalMethodStats = eval.MethodStats
)

// NewEvalRunner builds an evaluation harness over a graph and
// recommender.
func NewEvalRunner(g *Graph, r *Recommender) *EvalRunner { return eval.NewRunner(g, r) }

// PaperMethods returns the eight method configurations of §6.2.
func PaperMethods() []EvalMethodSpec { return eval.PaperMethods() }

// ExtensionMethods returns configurations for the implemented
// future-work modes (Combined, Reweight).
func ExtensionMethods() []EvalMethodSpec { return eval.ExtensionMethods() }

// RenderTable4 prints the graph's per-node-type degree statistics in
// the layout of the paper's Table 4.
func RenderTable4(w io.Writer, g View) error { return eval.RenderTable4(w, g) }

// RenderFigure4 prints the per-method success rates (Figure 4).
func RenderFigure4(w io.Writer, r *EvalResults) error { return eval.RenderFigure4(w, r) }

// RenderFigure5 prints the remove-mode success rates relative to the
// brute-force oracle (Figure 5).
func RenderFigure5(w io.Writer, r *EvalResults) error { return eval.RenderFigure5(w, r) }

// RenderFigure6 prints the average explanation sizes (Figure 6).
func RenderFigure6(w io.Writer, r *EvalResults) error { return eval.RenderFigure6(w, r) }

// RenderTable5 prints the average runtimes per method (Table 5).
func RenderTable5(w io.Writer, r *EvalResults) error { return eval.RenderTable5(w, r) }

// RenderRankBreakdown prints each method's success rate split by the
// Why-Not item's original rank.
func RenderRankBreakdown(w io.Writer, r *EvalResults) error { return eval.RenderRankBreakdown(w, r) }

// Sweep support: evaluate the same scenarios under several recommender
// configurations (α/β/ε ablations).
type (
	// SweepVariant pairs a label with a recommender configuration.
	SweepVariant = eval.SweepVariant
	// SweepResult is one variant's evaluation outcome.
	SweepResult = eval.SweepResult
	// RateCount is a success counter used by the breakdown helpers.
	RateCount = eval.RateCount
)

// RunSweep evaluates cfg under each recommender variant.
func RunSweep(g *Graph, variants []SweepVariant, cfg EvalConfig) ([]SweepResult, error) {
	return eval.RunSweep(g, variants, cfg)
}

// RunSweepContext is RunSweep with cancellation, polled between
// variants: a canceled sweep returns the variants completed so far
// plus ctx's error.
func RunSweepContext(ctx context.Context, g *Graph, variants []SweepVariant, cfg EvalConfig) ([]SweepResult, error) {
	return eval.RunSweepContext(ctx, g, variants, cfg)
}

// RenderSweep prints a success-rate row per (variant, method) pair.
func RenderSweep(w io.Writer, sweep []SweepResult) error { return eval.RenderSweep(w, sweep) }

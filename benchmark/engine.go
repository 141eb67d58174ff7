package main

import (
	"context"
	"errors"
	"fmt"

	emigre "github.com/why-not-xai/emigre"
	"github.com/why-not-xai/emigre/client"
	"github.com/why-not-xai/emigre/internal/cli"
)

// The paper's hyper-parameters, passed to the binaries as flags and to
// the in-process engine as configuration. Everything else stays at the
// shipped flag defaults.
const (
	paperBeta    = 0.5
	paperAlpha   = 0.15
	paperEpsilon = 2.7e-8
	itemTypes    = "item"
	edgeTypes    = "rated,reviewed"
	addType      = "rated"
	// serverMaxTests is emigre-server's -max-tests default; the library
	// default differs, so the in-process engine sets it explicitly.
	serverMaxTests = 200
)

// serverFlags are the flags every emigre-server of the benchmark gets
// on top of -graph and -addr.
var serverFlags = []string{
	"-beta", fmt.Sprint(paperBeta), "-alpha", fmt.Sprint(paperAlpha), "-epsilon", fmt.Sprint(paperEpsilon),
	"-item-types", itemTypes, "-edge-types", edgeTypes, "-add-type", addType,
}

// engine is the in-process counterpart of one emigre-server: the same
// graph, recommender configuration and explainer options, reachable
// without HTTP. The traced run times its layers; -update-expected and
// the correctness check use it as the reference.
type engine struct {
	g    *emigre.Graph
	rec  *emigre.Recommender
	opts emigre.Options
}

func newEngine(g *emigre.Graph) (*engine, error) {
	items, err := cli.NodeTypeIDs(g, itemTypes)
	if err != nil {
		return nil, err
	}
	cfg := emigre.RecommenderConfig{PPR: emigre.DefaultPPRParams(), Beta: paperBeta, ItemTypes: items}
	cfg.PPR.Alpha = paperAlpha
	cfg.PPR.Epsilon = paperEpsilon
	r, err := emigre.NewRecommender(g, cfg)
	if err != nil {
		return nil, err
	}
	allowed, err := cli.EdgeTypeIDs(g, edgeTypes)
	if err != nil {
		return nil, err
	}
	add, err := cli.EdgeTypeIDs(g, addType)
	if err != nil {
		return nil, err
	}
	r.Flat() // build the snapshot before goroutines share the recommender
	return &engine{g: g, rec: r, opts: emigre.Options{
		AllowedEdgeTypes: emigre.NewEdgeTypeSet(allowed...),
		AddEdgeType:      add[0],
		MaxTests:         serverMaxTests,
	}}, nil
}

// coldExplainer returns an explainer that shares nothing between calls:
// no vector cache, sequential CHECKs, no warm starts. It is the
// independent judge of the correctness check.
func (e *engine) coldExplainer() *emigre.Explainer {
	opts := e.opts
	opts.DisableCache = true
	return emigre.NewExplainer(e.g, e.rec, opts)
}

// cachedExplainer returns an explainer and recommender sharing one
// fresh vector cache, as emigre-server wires them.
func (e *engine) cachedExplainer() (*emigre.Explainer, *emigre.Recommender) {
	cache := emigre.NewPPRCache(emigre.PPRCacheConfig{})
	r := e.rec.WithCache(cache)
	opts := e.opts
	opts.Cache = cache
	return emigre.NewExplainer(e.g, r, opts), r
}

// query resolves an op's labels.
func (e *engine) query(o op) (emigre.Query, error) {
	user, err := cli.ResolveNode(e.g, o.User)
	if err != nil {
		return emigre.Query{}, err
	}
	wni, err := cli.ResolveNode(e.g, o.WNI)
	if err != nil {
		return emigre.Query{}, err
	}
	return emigre.Query{User: user, WNI: wni}, nil
}

// explain answers one explain op directly and returns the explanation
// (nil when none exists) with its answer.
func (e *engine) explain(ctx context.Context, ex *emigre.Explainer, o op) (*emigre.Explanation, answer, error) {
	q, err := e.query(o)
	if err != nil {
		return nil, answer{}, err
	}
	mode, err := cli.ParseMode(o.Mode)
	if err != nil {
		return nil, answer{}, err
	}
	method, err := cli.ParseMethod(o.Method)
	if err != nil {
		return nil, answer{}, err
	}
	expl, err := ex.ExplainWithContext(ctx, q, mode, method)
	if errors.Is(err, emigre.ErrNoExplanation) {
		return nil, answer{Status: statusNoExplanation}, nil
	}
	if err != nil {
		return nil, answer{}, fmt.Errorf("%s: %w", o.key(), err)
	}
	a := answer{Status: statusAnswered}
	for _, edge := range expl.Edges {
		a.Edges = append(a.Edges, edgeName(e.g.Label(edge.To), e.g.Types().EdgeTypeName(edge.Type)))
	}
	return expl, a, nil
}

// diagnose answers one diagnose op directly.
func (e *engine) diagnose(ctx context.Context, ex *emigre.Explainer, o op) (answer, error) {
	q, err := e.query(o)
	if err != nil {
		return answer{}, err
	}
	mode, err := cli.ParseMode(o.Mode)
	if err != nil {
		return answer{}, err
	}
	d, err := ex.DiagnoseContext(ctx, q, mode)
	if err != nil {
		return answer{}, fmt.Errorf("%s: %w", o.key(), err)
	}
	return answer{Status: statusAnswered, Diagnosis: diagnosisName(d.Kind.String(), d.WorkingMode.String(), d.Actions)}, nil
}

func edgeName(toLabel, edgeType string) string { return toLabel + ":" + edgeType }

func diagnosisName(kind, workingMode string, actions int) string {
	return fmt.Sprintf("%s/%s/%d", kind, workingMode, actions)
}

// verify re-applies an answered explanation's edges, as the server
// reported them, with a cold explainer and reports whether the Why-Not
// item becomes the top recommendation.
func (e *engine) verify(ctx context.Context, cold *emigre.Explainer, o op, edges []client.Edge) (bool, error) {
	q, err := e.query(o)
	if err != nil {
		return false, err
	}
	mode, err := cli.ParseMode(o.Mode)
	if err != nil {
		return false, err
	}
	expl := &emigre.Explanation{Query: q, Mode: mode}
	for _, edge := range edges {
		typ, ok := e.g.Types().LookupEdgeType(edge.EdgeType)
		if !ok {
			return false, fmt.Errorf("%s: unknown edge type %q", o.key(), edge.EdgeType)
		}
		expl.Edges = append(expl.Edges, emigre.Edge{
			From: emigre.NodeID(edge.From), To: emigre.NodeID(edge.To), Type: typ, Weight: edge.Weight,
		})
	}
	return cold.VerifyContext(ctx, expl)
}

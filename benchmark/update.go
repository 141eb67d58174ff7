package main

import (
	"context"
	"fmt"
	"slices"
	"sync"

	emigre "github.com/why-not-xai/emigre"
)

// datasetSeed is emigre-gen's -seed default. The graph is the program's
// data, not its traffic, so it does not follow the workload seed.
const datasetSeed = 1

// maxSeconds is the longest -seconds the expected answers cover (the
// benchmark contract's maximum).
const maxSeconds = 60

// generateLite builds the Amazon Lite dataset the way `emigre-gen
// -preset lite` does and returns it with its sampled users.
func generateLite() (*emigre.Dataset, []emigre.NodeID, error) {
	cfg := emigre.DefaultDatasetConfig()
	cfg.Seed = datasetSeed
	ds, err := emigre.GenerateDataset(cfg)
	if err != nil {
		return nil, nil, err
	}
	lcfg := emigre.DefaultLiteConfig()
	lcfg.Seed = datasetSeed
	return ds.Lite(lcfg)
}

// expectedUsers asks the recommender for every sampled user's top list.
func expectedUsers(ctx context.Context, g *emigre.Graph, r *emigre.Recommender, users []emigre.NodeID) ([]expectedUser, error) {
	out := make([]expectedUser, len(users))
	for i, u := range users {
		top, err := r.TopNContext(ctx, u, recommendN)
		if err != nil {
			return nil, fmt.Errorf("top list of %s: %w", g.Label(u), err)
		}
		if len(top) != recommendN {
			return nil, fmt.Errorf("%s has only %d recommendable items", g.Label(u), len(top))
		}
		out[i].User = g.Label(u)
		for _, sc := range top {
			out[i].Top = append(out[i].Top, g.Label(sc.Node))
		}
	}
	return out, nil
}

// updateExpected recomputes expected.json: every question any workload
// can ask at up to maxSeconds is answered in process, and every
// explanation is re-verified by a cold explainer before it is written.
func updateExpected(ctx context.Context) error {
	lite, users, err := generateLite()
	if err != nil {
		return err
	}
	eng, err := newEngine(lite.Graph)
	if err != nil {
		return err
	}
	ex, r := eng.cachedExplainer()
	exp := &expected{Answers: map[string]answer{}}
	if exp.Users, err = expectedUsers(ctx, eng.g, r, users); err != nil {
		return err
	}
	exp.index()

	var questions []op
	seen := map[string]bool{}
	for _, o := range slices.Concat(
		explainPopulation(exp, "remove", count(removeOpsPerSecond, maxSeconds)),
		explainPopulation(exp, "add", count(addOpsPerSecond, maxSeconds)),
		mixedPopulation(exp, mixedQuestions)) {
		if o.Kind != opRecommend && !seen[o.key()] {
			seen[o.key()] = true
			questions = append(questions, o)
		}
	}
	fmt.Printf("answering %d questions in process\n", len(questions))

	cold := eng.coldExplainer()
	var (
		mu    sync.Mutex
		first error
	)
	forEach(len(questions), func(i int) {
		o := questions[i]
		a, err := referenceAnswer(ctx, eng, ex, cold, o)
		mu.Lock()
		defer mu.Unlock()
		if err != nil && first == nil {
			first = err
		}
		exp.Answers[o.key()] = a
	})
	if first != nil {
		return first
	}
	if err := exp.save(expectedFile); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d users, %d answers\n", expectedFile, len(exp.Users), len(exp.Answers))
	return nil
}

// referenceAnswer answers one explain or diagnose op directly and, for
// an explanation, has the cold explainer confirm it.
func referenceAnswer(ctx context.Context, eng *engine, ex, cold *emigre.Explainer, o op) (answer, error) {
	if o.Kind == opDiagnose {
		return eng.diagnose(ctx, ex, o)
	}
	expl, a, err := eng.explain(ctx, ex, o)
	if err != nil || expl == nil {
		return a, err
	}
	ok, err := cold.VerifyContext(ctx, expl)
	if err != nil {
		return a, fmt.Errorf("%s: verifying: %w", o.key(), err)
	}
	if !ok || !expl.Verified || expl.NewTop != expl.Query.WNI {
		return a, fmt.Errorf("%s: the reference explanation does not verify", o.key())
	}
	return a, nil
}

package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"
)

// Op kinds, named after the client calls they map to.
const (
	opExplain   = "explain"
	opRecommend = "recommend"
	opDiagnose  = "diagnose"
)

// recommendN is the list length every recommend op asks for (and the
// length of the expected top lists).
const recommendN = 10

var (
	modes   = []string{"remove", "add"}
	methods = []string{"incremental", "powerset", "exhaustive"}
)

// op is one request of a workload. Due is its scheduled send time from
// the start of the timed phase (open loop only; closed loops leave it 0).
type op struct {
	Kind   string
	User   string
	WNI    string
	Mode   string
	Method string
	Due    time.Duration
}

// key identifies the question an op asks; ops with equal keys must get
// equal answers. It indexes the expected-outcome table.
func (o op) key() string {
	switch o.Kind {
	case opRecommend:
		return opRecommend + "|" + o.User
	case opDiagnose:
		return opDiagnose + "|" + o.Mode + "|" + o.User + "|" + o.WNI
	default:
		return opExplain + "|" + o.Mode + "|" + o.Method + "|" + o.User + "|" + o.WNI
	}
}

// populationSeed fixes which questions each workload asks. The run's
// -seed decides only the order and timing they arrive in (and, on
// recommend-hot, which users ask): the cost of an explain spans three
// orders of magnitude, so the question set has to be the same on every
// run for percentiles and CPU per op to be comparable between runs.
const populationSeed = 1

// Workload sizing: ops per second of -seconds, set so that the timed
// phase of each workload lasts about -seconds on the seed commit at 2
// cores. Changes that claim a gain never retune them.
const (
	removeOpsPerSecond    = 2.3
	addOpsPerSecond       = 7
	recommendOpsPerSecond = 600
	mixedOpsPerSecond     = 9 // the open-loop arrival rate
)

// mixedQuestions is the number of ops in the mixed workload's question
// set. The timed phase cycles through it, so every question it asks has
// been asked before (by the untimed warm pass, at the latest).
const mixedQuestions = 48

// Mixed-workload shape.
const (
	zipfS            = 1.2
	mixExplainShare  = 0.60
	mixRecommendShar = 0.35 // the remaining 0.05 is diagnose
)

// workload describes one traffic mix.
type workload struct {
	name string
	// primary is the op kind whose latency the end-to-end percentiles
	// describe.
	primary string
	// routed workloads go through emigre-router in front of two
	// backends; the others talk to one emigre-server.
	routed bool
	// open workloads send on a schedule whether or not earlier answers
	// came back; closed ones run closedClients callers that each wait
	// for their answer.
	open bool
	// ops builds the op list for a run.
	ops func(exp *expected, seed int64, seconds int) []op
	// warm, when set, lists ops sent once, untimed, by closedClients
	// callers between set-up and the timed phase.
	warm func(exp *expected) []op
}

var workloads = []workload{
	{
		name:    "whynot-remove",
		primary: opExplain,
		ops: func(exp *expected, seed int64, seconds int) []op {
			return shuffled(explainPopulation(exp, "remove", count(removeOpsPerSecond, seconds)), seed)
		},
	},
	{
		name:    "whynot-add",
		primary: opExplain,
		ops: func(exp *expected, seed int64, seconds int) []op {
			return shuffled(explainPopulation(exp, "add", count(addOpsPerSecond, seconds)), seed)
		},
	},
	{
		name:    "recommend-hot",
		primary: opRecommend,
		ops: func(exp *expected, seed int64, seconds int) []op {
			rng := rand.New(rand.NewSource(seed))
			users := rand.NewZipf(rng, zipfS, 1, uint64(len(exp.Users)-1))
			ops := make([]op, count(recommendOpsPerSecond, seconds))
			for i := range ops {
				ops[i] = op{Kind: opRecommend, User: exp.Users[users.Uint64()].User}
			}
			return ops
		},
	},
	{
		name:    "mixed-zipf-routed",
		primary: opExplain,
		routed:  true,
		open:    true,
		warm:    func(exp *expected) []op { return mixedPopulation(exp, mixedQuestions) },
		ops: func(exp *expected, seed int64, seconds int) []op {
			questions := mixedPopulation(exp, mixedQuestions)
			ops := make([]op, count(mixedOpsPerSecond, seconds))
			for i := range ops {
				ops[i] = questions[i%len(questions)]
			}
			poissonSchedule(shuffled(ops, seed), time.Duration(seconds)*time.Second, seed)
			return ops
		},
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func count(perSecond float64, seconds int) int {
	return int(perSecond * float64(seconds))
}

// pair is one Why-Not question: a sampled user and an item of their
// top list below rank 1.
type pair struct{ user, wni string }

// scenarioPool lists, for every sampled user, the items at ranks 2-10
// of their top-10, in an order fixed by populationSeed: round after
// round over all users, each user's ranks in an order of their own. Any
// prefix no longer than the user count therefore asks about distinct
// users, and a longer one about each user equally often - one user's
// questions share cached vectors, so how many of them a workload holds
// must not depend on its length.
func scenarioPool(exp *expected) []pair {
	rng := rand.New(rand.NewSource(populationSeed))
	users := rng.Perm(len(exp.Users))
	ranks := make([][]int, len(exp.Users))
	for u := range ranks {
		ranks[u] = rng.Perm(recommendN - 1)
	}
	var pool []pair
	for round := 0; round < recommendN-1; round++ {
		for _, u := range users {
			pool = append(pool, pair{exp.Users[u].User, exp.Users[u].Top[1+ranks[u][round]]})
		}
	}
	return pool
}

// explainPopulation is the first n questions of the pool in one mode,
// methods round-robin. n beyond the pool is clipped: a pair is never
// asked twice, so the cache never answers.
func explainPopulation(exp *expected, mode string, n int) []op {
	pool := scenarioPool(exp)
	if n > len(pool) {
		n = len(pool)
	}
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{Kind: opExplain, User: pool[i].user, WNI: pool[i].wni, Mode: mode, Method: methods[i%len(methods)]}
	}
	return ops
}

// mixedPopulation draws n ops with Zipf-distributed users and Why-Not
// ranks, so that questions repeat.
func mixedPopulation(exp *expected, n int) []op {
	rng := rand.New(rand.NewSource(populationSeed))
	users := rand.NewZipf(rng, zipfS, 1, uint64(len(exp.Users)-1))
	ranks := rand.NewZipf(rng, zipfS, 1, recommendN-2)
	ops := make([]op, n)
	for i := range ops {
		u := exp.Users[users.Uint64()]
		o := op{User: u.User}
		switch x := rng.Float64(); {
		case x < mixExplainShare:
			o.Kind = opExplain
		case x < mixExplainShare+mixRecommendShar:
			o.Kind = opRecommend
		default:
			o.Kind = opDiagnose
		}
		if o.Kind != opRecommend {
			o.WNI = u.Top[1+ranks.Uint64()]
			o.Mode = modes[rng.Intn(len(modes))]
		}
		if o.Kind == opExplain {
			o.Method = methods[rng.Intn(len(methods))]
		}
		ops[i] = o
	}
	return ops
}

// shuffled returns ops in the arrival order the run's seed selects.
func shuffled(ops []op, seed int64) []op {
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// poissonSchedule stamps the arrival times of a Poisson process onto
// ops, given that len(ops) arrivals fall within span: independent
// uniform draws over the span, in order. Conditioning on the count keeps
// the offered rate the same for every seed.
func poissonSchedule(ops []op, span time.Duration, seed int64) {
	// A different stream from the shuffle's, so order and times are
	// independent draws of one seed.
	rng := rand.New(rand.NewSource(seed ^ 0x5deece66d))
	dues := make([]time.Duration, len(ops))
	for i := range dues {
		dues[i] = time.Duration(rng.Int63n(int64(span)))
	}
	slices.Sort(dues)
	for i := range ops {
		ops[i].Due = dues[i]
	}
}

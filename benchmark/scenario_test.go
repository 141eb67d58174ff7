package main

import (
	"reflect"
	"slices"
	"testing"
	"time"
)

// The tests run in the package directory; the command runs at the root.
const testExpectedFile = "expected.json"

func keysOf(ops []op) []string {
	keys := make([]string, len(ops))
	for i, o := range ops {
		keys[i] = o.key()
	}
	return keys
}

func TestWorkloadsAreDeterministicPerSeed(t *testing.T) {
	exp, err := loadExpected(testExpectedFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		a, b := w.ops(exp, 7, 30), w.ops(exp, 7, 30)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two builds with one seed differ", w.name)
		}
		c := w.ops(exp, 8, 30)
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 give the same stream", w.name)
		}
		if len(a) != len(c) || len(a) == 0 {
			t.Errorf("%s: %d ops with seed 7, %d with seed 8", w.name, len(a), len(c))
		}
		if w.primary != opRecommend {
			// Which questions are asked is fixed; the seed orders them.
			ka, kc := keysOf(a), keysOf(c)
			slices.Sort(ka)
			slices.Sort(kc)
			if !slices.Equal(ka, kc) {
				t.Errorf("%s: seeds 7 and 8 ask different questions", w.name)
			}
		}
		for _, o := range a {
			if _, err := exp.answerFor(o); err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
		}
		// The expected answers cover the longest run the contract allows.
		for _, o := range w.ops(exp, 7, maxSeconds) {
			if _, err := exp.answerFor(o); err != nil {
				t.Fatalf("%s at %d s: %v", w.name, maxSeconds, err)
			}
		}
	}
}

func TestExplainPopulationAsksEachUserOncePerRound(t *testing.T) {
	exp, err := loadExpected(testExpectedFile)
	if err != nil {
		t.Fatal(err)
	}
	pool := scenarioPool(exp)
	if want := len(exp.Users) * (recommendN - 1); len(pool) != want {
		t.Fatalf("pool holds %d pairs, want %d", len(pool), want)
	}
	seenPair := map[pair]bool{}
	for round := 0; round < recommendN-1; round++ {
		seenUser := map[string]bool{}
		for _, p := range pool[round*len(exp.Users) : (round+1)*len(exp.Users)] {
			if seenUser[p.user] {
				t.Fatalf("round %d asks about %s twice", round, p.user)
			}
			seenUser[p.user] = true
			if seenPair[p] {
				t.Fatalf("pair %v appears twice", p)
			}
			seenPair[p] = true
			if top := exp.top[p.user]; p.wni == top[0] || !slices.Contains(top, p.wni) {
				t.Fatalf("%v is not at ranks 2-10 of the user's list", p)
			}
		}
	}
	ops := explainPopulation(exp, "remove", 7)
	for i, o := range ops {
		if o.Method != methods[i%len(methods)] || o.Mode != "remove" || o.Kind != opExplain {
			t.Errorf("op %d = %+v: methods must go round-robin in the asked mode", i, o)
		}
	}
}

func TestPoissonScheduleIsSeededSortedAndInsideItsSpan(t *testing.T) {
	span := 20 * time.Second
	build := func(seed int64) []op {
		ops := make([]op, 500)
		poissonSchedule(ops, span, seed)
		return ops
	}
	a, b, c := build(3), build(3), build(4)
	if !reflect.DeepEqual(a, b) {
		t.Error("one seed, two schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("two seeds, one schedule")
	}
	var gaps []float64
	for i, o := range a {
		if o.Due < 0 || o.Due >= span {
			t.Fatalf("op %d is due at %v, outside [0, %v)", i, o.Due, span)
		}
		if i > 0 {
			if o.Due < a[i-1].Due {
				t.Fatalf("op %d is due before op %d", i, i-1)
			}
			gaps = append(gaps, (o.Due - a[i-1].Due).Seconds())
		}
	}
	// Exponential gaps: the median is ln 2 times the mean, far from a
	// fixed-interval schedule's 1.
	if r := median(gaps) / mean(gaps); r < 0.55 || r > 0.85 {
		t.Errorf("median gap / mean gap = %.2f, want about 0.69", r)
	}
}

func TestZipfStreamsRepeatPopularUsers(t *testing.T) {
	exp, err := loadExpected(testExpectedFile)
	if err != nil {
		t.Fatal(err)
	}
	hot, err := workloadByName("recommend-hot")
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	ops := hot.ops(exp, 1, 10)
	for _, o := range ops {
		counts[o.User]++
	}
	if first := counts[exp.Users[0].User]; first < len(ops)/5 {
		t.Errorf("the most popular user asked %d of %d recommends; Zipf(%.1f) gives it over a fifth", first, len(ops), zipfS)
	}
	mixed := mixedPopulation(exp, mixedQuestions)
	if !reflect.DeepEqual(mixed, mixedPopulation(exp, mixedQuestions)) {
		t.Error("the mixed question set is not fixed")
	}
	kinds := map[string]int{}
	for _, o := range mixed {
		kinds[o.Kind]++
	}
	if kinds[opExplain] < kinds[opRecommend] || kinds[opRecommend] < kinds[opDiagnose] {
		t.Errorf("op mix %v, want explain > recommend > diagnose", kinds)
	}
}

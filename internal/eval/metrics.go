package eval

import (
	"sort"
	"time"
)

// MethodStats aggregates one method's outcomes across all scenarios.
type MethodStats struct {
	Method    MethodSpec
	Scenarios int
	// Found counts returned explanations; Correct counts the verified
	// ones (the success-rate numerator).
	Found   int
	Correct int
	Errors  int

	// SuccessRate is Correct / Scenarios (Figure 4).
	SuccessRate float64

	// AvgSize is the mean explanation size over correct outcomes
	// (Figure 6).
	AvgSize float64

	// Runtime columns of Table 5: (a) overall, (b) when an explanation
	// was found, (c) when none was found.
	AvgTime         time.Duration
	AvgTimeFound    time.Duration
	AvgTimeNotFound time.Duration

	// P50Time and P95Time are overall runtime percentiles — tail
	// behaviour the paper's averages hide (brute force's column (c) is
	// pure tail).
	P50Time time.Duration
	P95Time time.Duration
}

// Stats aggregates per-method statistics in the order the methods first
// appear in the outcomes.
func (r *Results) Stats() []MethodStats {
	order := []string{}
	byName := map[string]*MethodStats{}
	for _, o := range r.Outcomes {
		st := byName[o.Method.Name]
		if st == nil {
			st = &MethodStats{Method: o.Method}
			byName[o.Method.Name] = st
			order = append(order, o.Method.Name)
		}
		st.Scenarios++
		if o.Err != "" {
			st.Errors++
		}
		if o.Found {
			st.Found++
		}
		if o.Correct {
			st.Correct++
		}
	}
	type acc struct {
		all, found, notFound      time.Duration
		nAll, nFound, nNot, sizeN int
		sizeSum                   int
		durations                 []time.Duration
	}
	accs := map[string]*acc{}
	for _, o := range r.Outcomes {
		a := accs[o.Method.Name]
		if a == nil {
			a = &acc{}
			accs[o.Method.Name] = a
		}
		a.all += o.Duration
		a.nAll++
		a.durations = append(a.durations, o.Duration)
		if o.Found {
			a.found += o.Duration
			a.nFound++
		} else {
			a.notFound += o.Duration
			a.nNot++
		}
		if o.Correct {
			a.sizeSum += o.Size
			a.sizeN++
		}
	}
	out := make([]MethodStats, 0, len(order))
	for _, name := range order {
		st := byName[name]
		a := accs[name]
		if st.Scenarios > 0 {
			st.SuccessRate = float64(st.Correct) / float64(st.Scenarios)
		}
		if a.nAll > 0 {
			st.AvgTime = a.all / time.Duration(a.nAll)
		}
		if a.nFound > 0 {
			st.AvgTimeFound = a.found / time.Duration(a.nFound)
		}
		if a.nNot > 0 {
			st.AvgTimeNotFound = a.notFound / time.Duration(a.nNot)
		}
		if a.sizeN > 0 {
			st.AvgSize = float64(a.sizeSum) / float64(a.sizeN)
		}
		if len(a.durations) > 0 {
			sort.Slice(a.durations, func(i, j int) bool { return a.durations[i] < a.durations[j] })
			st.P50Time = percentile(a.durations, 0.50)
			st.P95Time = percentile(a.durations, 0.95)
		}
		out = append(out, *st)
	}
	return out
}

// percentile returns the p-quantile of sorted durations using the
// nearest-rank method.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// scenarioKey identifies a scenario across methods.
type scenarioKey struct {
	user, wni int32
}

// RelativeSuccess computes Figure 5: each method's success rate
// restricted to the scenarios the baseline method solved (i.e., where a
// solution is known to exist). The baseline itself scores 1 by
// definition. Methods are returned in first-appearance order; the
// baseline must be present in the outcomes.
func (r *Results) RelativeSuccess(baseline string) (map[string]float64, int) {
	solvable := map[scenarioKey]bool{}
	for _, o := range r.Outcomes {
		if o.Method.Name == baseline && o.Correct {
			solvable[scenarioKey{int32(o.Scenario.User), int32(o.Scenario.WNI)}] = true
		}
	}
	counts := map[string]int{}
	correct := map[string]int{}
	for _, o := range r.Outcomes {
		if !solvable[scenarioKey{int32(o.Scenario.User), int32(o.Scenario.WNI)}] {
			continue
		}
		counts[o.Method.Name]++
		if o.Correct {
			correct[o.Method.Name]++
		}
	}
	out := map[string]float64{}
	for name, n := range counts {
		if n > 0 {
			out[name] = float64(correct[name]) / float64(n)
		}
	}
	return out, len(solvable)
}

package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestContractMatchesHarness holds BENCHMARK.json against the harness:
// every metric and workload the file names is one the command reports,
// under the same unit, and the other way round.
func TestContractMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../" + contractFile)
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, listed []contractMetric) {
		if len(defs) != len(listed) {
			t.Errorf("%s: the harness reports %d metrics, %s lists %d", kind, len(defs), contractFile, len(listed))
		}
		for i, m := range listed {
			if i >= len(defs) {
				break
			}
			if defs[i].name != m.Name || defs[i].unit != m.Unit {
				t.Errorf("%s metric %d: harness %s [%s], %s %s [%s]", kind, i, defs[i].name, defs[i].unit, contractFile, m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
		}
	}
	check("end-to-end", endToEndMetrics, c.EndToEnd)
	check("per-layer", perLayerMetrics, c.PerLayer)
	for _, m := range c.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, w := range c.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	if c.RunSeconds < 1 || c.RunSeconds > maxSeconds {
		t.Errorf("run_seconds = %d", c.RunSeconds)
	}
}

package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
)

// contractFile is the benchmark contract at the root of the repository:
// the command, the workloads and every metric with its unit, direction
// and - for end-to-end metrics - regression bound.
const contractFile = "BENCHMARK.json"

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

func loadContract() (*contract, error) {
	raw, err := os.ReadFile(contractFile)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", contractFile, err)
	}
	return &c, nil
}

// repeatRuns measures each workload n times end to end on one build and
// one seed and holds the runs against the contract's own bounds: the
// spread of every metric, (max-min)/min, must stay within the metric's
// bound, and the answer digests must be identical.
func repeatRuns(ctx context.Context, cfg runConfig, name string, n int) error {
	c, err := loadContract()
	if err != nil {
		return err
	}
	selected := workloads
	if name != "" {
		w, err := workloadByName(name)
		if err != nil {
			return err
		}
		selected = []workload{w}
	}
	pass := true
	for _, w := range selected {
		var reps []*report
		for i := 0; i < n; i++ {
			rep, err := measure(ctx, cfg, w, false)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", w.name, i+1, err)
			}
			reps = append(reps, rep)
			pass = pass && rep.correct() && rep.digest == reps[0].digest
		}
		fmt.Printf("== %s  seed %d  %d runs  digest %s\n", w.name, cfg.seed, n, reps[0].digest)
		for _, cm := range c.EndToEnd {
			var values []float64
			for _, rep := range reps {
				m, ok := rep.metric(cm.Name)
				if !ok {
					return fmt.Errorf("%s does not report %s", w.name, cm.Name)
				}
				values = append(values, m.value)
			}
			spread := ratio(slices.Max(values)-slices.Min(values), slices.Min(values))
			verdict := "PASS"
			if spread > cm.Bound {
				verdict, pass = "FAIL", false
			}
			fmt.Printf("%-20s %-6s %v  spread %.4f  bound %.2f  %s\n", cm.Name, cm.Unit, values, spread, cm.Bound, verdict)
		}
		for i, rep := range reps {
			if !rep.correct() || rep.digest != reps[0].digest {
				fmt.Printf("run %d: digest %s\n", i+1, rep.digest)
				rep.print(os.Stdout)
			}
		}
	}
	if !pass {
		return errors.New("the runs do not agree within the contract's bounds")
	}
	return nil
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// metric is one measured value with its unit and the number of samples
// behind it.
type metric struct {
	name    string
	unit    string
	value   float64
	samples int
}

// report is the outcome of one run of one workload.
type report struct {
	workload string
	seed     int64
	traced   bool
	// metrics are the ones BENCHMARK.json names for this kind of run;
	// extra are printed beside them but not part of the result line.
	metrics []metric
	extra   []metric

	attempted, failed int
	tally             map[outcome]int
	digest            string
	// violations lists every way the program's outputs were wrong.
	violations []string
}

func (r *report) correct() bool { return len(r.violations) == 0 }

func (r *report) metric(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

// print writes the human-readable report.
func (r *report) print(w io.Writer) {
	kind := "end to end, real binaries"
	if r.traced {
		kind = "per layer, traced in process"
	}
	fmt.Fprintf(w, "== %s  seed %d  (%s)\n", r.workload, r.seed, kind)
	for _, m := range append(append([]metric{}, r.metrics...), r.extra...) {
		fmt.Fprintf(w, "%-40s %14.4f %-8s n=%d\n", m.name, m.value, m.unit, m.samples)
	}
	if len(r.tally) > 0 {
		var parts []string
		for o, n := range r.tally {
			parts = append(parts, fmt.Sprintf("%s=%d", o, n))
		}
		sort.Strings(parts)
		fmt.Fprintf(w, "outcomes: %s\n", strings.Join(parts, " "))
	}
	if r.digest != "" {
		fmt.Fprintf(w, "digest: %s\n", r.digest)
	}
	for i, v := range r.violations {
		if i == 10 {
			fmt.Fprintf(w, "WRONG: ... and %d more\n", len(r.violations)-i)
			break
		}
		fmt.Fprintf(w, "WRONG: %s\n", v)
	}
}

// resultLine renders the one-line JSON object the benchmark contract
// asks for as the last line of output.
func (r *report) resultLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, map[string]value{}}
	for _, m := range r.metrics {
		v := m.value
		// JSON has no infinity; a percentile that reached into failed
		// ops reads as the largest finite number instead.
		if math.IsInf(v, 1) || math.IsNaN(v) {
			v = math.MaxFloat64
		}
		out.Metrics[m.name] = value{v, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // only finite floats and strings: cannot fail
	}
	return string(b)
}

// environment describes where the numbers were taken. Every output
// carries it, because none of them mean anything without it.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"git_commit"`
}

func readEnvironment() environment {
	env := environment{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		Commit:     "unknown",
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	// The benchmark also runs from exported trees that are not git
	// repositories; the commit is then unknown.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

func (e environment) String() string {
	return fmt.Sprintf("%s GOMAXPROCS=%d nproc=%d cpu=%q commit=%s",
		e.GoVersion, e.GOMAXPROCS, e.NumCPU, e.CPUModel, e.Commit)
}

// Command benchmark is the repository's one performance benchmark: it
// drives the real emigre-gen, emigre-server and emigre-router binaries
// with seeded workloads through the public client and reports the
// end-to-end metrics BENCHMARK.json names, or — with -trace 1 — replays
// the same inputs in process and reports what each layer costs. See
// README.md in this directory.
//
//	bash benchmark/run.sh --workload whynot-remove --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh                  # every workload, both kinds of run
//	bash benchmark/run.sh -repeat 2        # run-to-run agreement against the bounds
//	bash benchmark/run.sh -update-expected # rewrite expected.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// runLimit bounds one run of one workload, set-up and checking
// included; the benchmark contract allows 180 seconds.
const runLimit = 170 * time.Second

func main() {
	os.Exit(run())
}

func run() int {
	self, err := os.Executable()
	if err != nil {
		self = "."
	}
	var (
		name    = flag.String("workload", "", "workload to run (empty: all of them)")
		seed    = flag.Int64("seed", 1, "workload seed: arrival order and timing")
		seconds = flag.Int("seconds", 30, "length of the timed phase the workloads are sized for")
		trace   = flag.Int("trace", 0, "0: end-to-end run against the real binaries; 1: traced in-process run reporting per-layer metrics")
		repeat  = flag.Int("repeat", 0, "run the end-to-end set this many times and compare the runs against the bounds in BENCHMARK.json")
		update  = flag.Bool("update-expected", false, "recompute "+expectedFile+" in process and exit")
		binDir  = flag.String("bin", filepath.Dir(self), "directory holding emigre-gen, emigre-server and emigre-router")
		outDir  = flag.String("out", "benchmark/out", "directory for the graph file, server logs and traces")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	// Subprocesses are started under ctx, so an interrupt kills them;
	// every path below also stops what it started before returning.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := runConfig{binDir: *binDir, outDir: *outDir, seed: *seed, seconds: *seconds, env: readEnvironment()}
	fmt.Println("environment:", cfg.env)

	switch {
	case *update:
		err = updateExpected(ctx)
	case *repeat > 0:
		err = repeatRuns(ctx, cfg, *name, *repeat)
	case *name == "":
		err = runAll(ctx, cfg)
	default:
		err = runOne(ctx, cfg, *name, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// errIncorrect marks a run whose measurements were taken but whose
// outputs failed the correctness check.
var errIncorrect = fmt.Errorf("the correctness check failed")

// measure runs one workload once under the per-run limit.
func measure(ctx context.Context, cfg runConfig, w workload, traced bool) (*report, error) {
	ctx, cancel := context.WithTimeout(ctx, runLimit)
	defer cancel()
	if traced {
		return runTraced(ctx, cfg, w)
	}
	return runEndToEnd(ctx, cfg, w)
}

// runOne is the contract's single run: a report, then the result line.
func runOne(ctx context.Context, cfg runConfig, name string, traced bool) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	rep, err := measure(ctx, cfg, w, traced)
	if err != nil {
		return err
	}
	rep.print(os.Stdout)
	fmt.Println(rep.resultLine())
	if !rep.correct() {
		return errIncorrect
	}
	return nil
}

// runAll prints every metric of every workload: an end-to-end run and
// a traced run each.
func runAll(ctx context.Context, cfg runConfig) error {
	correct := true
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rep, err := measure(ctx, cfg, w, traced)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			rep.print(os.Stdout)
			correct = correct && rep.correct()
		}
	}
	if !correct {
		return errIncorrect
	}
	return nil
}

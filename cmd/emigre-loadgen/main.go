// Command emigre-loadgen drives an emigre-server with synthesized or
// replayed traffic and reports latency/SLO results.
//
// Four modes:
//
//	# synthesize a stream and print it (inspection; nothing is sent)
//	emigre-loadgen -mode generate -seed 7 -count 100
//
//	# synthesize, run against a server, record a session log + report
//	emigre-loadgen -mode run -addr http://localhost:8080 \
//	    -seed 7 -count 500 -rate 200 -log session.jsonl \
//	    -report report.json
//
//	# replay a recorded session at 2x the recorded rate
//	emigre-loadgen -mode replay -addr http://localhost:8080 \
//	    -log session.jsonl -speed 2
//
//	# summarize a recorded session offline (no server)
//	emigre-loadgen -mode report -log session.jsonl
//
// A run scrapes GET /metrics before and after the traffic and folds
// the counter deltas into the report. The report's error_rate counts
// failed requests only: a 404 (no explanation exists) or 422 (not a
// Why-Not item) is an answer, so a healthy server reads 0 and a script
// can assert it with `jq -e '.error_rate == 0' report.json`.
//
// The workload model is fully seeded: the same -seed and shape flags
// produce a byte-identical request stream, and a replay re-sends the
// recorded logical request IDs (X-Emigre-Request-Id), so server-side
// captures line up across runs.
//
// Exit status: 0 on success, 1 when the run aborted or any output
// could not be written, 2 on usage errors.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/why-not-xai/emigre/client"
	"github.com/why-not-xai/emigre/internal/load"
	"github.com/why-not-xai/emigre/internal/obs"
)

// Default populations mirror the books preset emigre-server ships, so
// a bare `emigre-loadgen -mode run` exercises a default server.
const (
	defaultUsers = "Paul,Alice,Dan,Greg,Hank,Clara,Fiona"
	defaultItems = "Harry Potter,Candide,C,Python"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("emigre-loadgen: ")
	var (
		mode = flag.String("mode", "run", "generate, run, replay or report")
		addr = flag.String("addr", "http://localhost:8080", "server base URL (run, replay)")

		// Workload shape (generate, run).
		seed      = flag.Int64("seed", 1, "workload seed; same seed + shape = identical stream")
		count     = flag.Int("count", 200, "requests to synthesize")
		users     = flag.String("users", defaultUsers, "comma-separated user labels")
		items     = flag.String("items", defaultItems, "comma-separated why-not item labels")
		userSkew  = flag.Float64("user-skew", 1.2, "user popularity Zipf s (0 = uniform, else > 1)")
		itemSkew  = flag.Float64("item-skew", 1.2, "item popularity Zipf s (0 = uniform, else > 1)")
		opMix     = flag.String("op-mix", "explain=0.7,recommend=0.25,diagnose=0.05", "op weights k=w,...")
		modeMix   = flag.String("mode-mix", "remove=1", "explanation-mode weights k=w,...")
		methodMix = flag.String("method-mix", "powerset=0.5,incremental=0.5", "search-method weights k=w,...")
		arrival   = flag.String("arrival", load.ArrivalPoisson, "arrival process: poisson or closed")
		rate      = flag.Float64("rate", 100, "poisson arrival rate, requests/second")
		topN      = flag.Int("n", 10, "recommend top-N size")
		budgetMS  = flag.Int("timeout-ms", 0, "server-side budget stamped on explain/diagnose (0 = server default)")

		// Execution (run, replay).
		concurrency = flag.Int("concurrency", 0, "workers (closed) or in-flight cap (open); 0 = default")
		speed       = flag.Float64("speed", 1, "open-loop rate multiplier: 1 = recorded/scheduled rate, 0 = no pacing")
		timeout     = flag.Duration("timeout", 10*time.Second, "client timeout per HTTP attempt")
		attempts    = flag.Int("attempts", client.DefaultMaxAttempts, "max client attempts per call")

		// Outputs.
		logPath    = flag.String("log", "", "session log: output path (run), input path (replay, report)")
		logOut     = flag.String("log-out", "", "replay's own session log output path (replay)")
		reportPath = flag.String("report", "", "write the JSON report here (- = stdout)")
		quiet      = flag.Bool("quiet", false, "suppress the rendered report on stdout")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		log.Printf("unexpected arguments: %v", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	cfg := load.Config{
		Seed:       *seed,
		Count:      *count,
		Users:      splitList(*users),
		Items:      splitList(*items),
		UserSkew:   *userSkew,
		ItemSkew:   *itemSkew,
		Arrival:    *arrival,
		Rate:       *rate,
		RecommendN: *topN,
		TimeoutMS:  *budgetMS,
	}
	var err error
	if cfg.OpMix, err = parseMix(*opMix); err != nil {
		log.Fatalf("-op-mix: %v", err)
	}
	if cfg.ModeMix, err = parseMix(*modeMix); err != nil {
		log.Fatalf("-mode-mix: %v", err)
	}
	if cfg.MethodMix, err = parseMix(*methodMix); err != nil {
		log.Fatalf("-method-mix: %v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch *mode {
	case "generate":
		reqs, err := load.Generate(cfg)
		if err != nil {
			log.Fatal(err)
		}
		enc := json.NewEncoder(os.Stdout)
		for i := range reqs {
			if err := enc.Encode(&reqs[i]); err != nil {
				log.Fatal(err)
			}
		}

	case "run", "replay":
		var reqs []load.Request
		closed := false
		if *mode == "run" {
			if reqs, err = load.Generate(cfg); err != nil {
				log.Fatal(err)
			}
			closed = cfg.Arrival == load.ArrivalClosed
		} else {
			if *logPath == "" {
				log.Fatal("-mode replay needs -log <session.jsonl>")
			}
			recs, err := readLogFile(*logPath)
			if err != nil {
				log.Fatal(err)
			}
			reqs = load.Requests(recs)
		}
		cl, err := client.New(client.Config{BaseURL: *addr, MaxAttempts: *attempts,
			PerAttemptTimeout: *timeout})
		if err != nil {
			log.Fatal(err)
		}
		metricsURL := strings.TrimRight(*addr, "/") + "/metrics"
		before := scrape(ctx, metricsURL)

		began := time.Now()
		recs, err := load.Run(ctx, load.RunConfig{
			Client:      cl,
			Requests:    reqs,
			Closed:      closed,
			Concurrency: *concurrency,
			Speed:       *speed,
		})
		if err != nil {
			log.Fatalf("run aborted: %v", err)
		}
		duration := time.Since(began).Seconds()
		after := scrape(ctx, metricsURL)

		out := *logPath
		if *mode == "replay" {
			out = *logOut
		}
		if out != "" {
			if err := writeLogFile(out, recs); err != nil {
				log.Fatal(err)
			}
		}
		emitReport(load.BuildReport(recs, before, after, duration), *reportPath, *quiet)

	case "report":
		if *logPath == "" {
			log.Fatal("-mode report needs -log <session.jsonl>")
		}
		recs, err := readLogFile(*logPath)
		if err != nil {
			log.Fatal(err)
		}
		// Offline duration: the span from first dispatch to last
		// completion recorded in the log.
		var maxEnd int64
		minStart := recs[0].StartUS
		for _, r := range recs {
			if r.StartUS < minStart {
				minStart = r.StartUS
			}
			if end := r.StartUS + r.LatencyUS; end > maxEnd {
				maxEnd = end
			}
		}
		duration := float64(maxEnd-minStart) / 1e6
		emitReport(load.BuildReport(recs, nil, nil, duration), *reportPath, *quiet)

	default:
		log.Printf("unknown -mode %q", *mode)
		flag.Usage()
		os.Exit(2)
	}
}

// scrape fetches the exposition, tolerating unreachable debug setups:
// a missing scrape degrades the report (no deltas), it does not kill
// the run.
func scrape(ctx context.Context, url string) *obs.Exposition {
	e, err := load.Scrape(ctx, url)
	if err != nil {
		log.Printf("warning: %v (report will have no metrics deltas)", err)
		return nil
	}
	return e
}

func emitReport(rep *load.Report, reportPath string, quiet bool) {
	if !quiet {
		fmt.Print(rep.Render())
	}
	if reportPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		data = append(data, '\n')
		if reportPath == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(reportPath, data, 0o644); err != nil {
			log.Fatal(err)
		}
	}
}

func readLogFile(path string) ([]load.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return load.ReadLog(f)
}

func writeLogFile(path string, recs []load.Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := load.WriteLog(f, recs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// splitList parses a comma-separated label list, trimming whitespace.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// parseMix parses "key=weight,key=weight" into a weight map.
func parseMix(s string) (map[string]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	mix := map[string]float64{}
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad entry %q (want key=weight)", part)
		}
		w, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil, fmt.Errorf("bad weight in %q: %v", part, err)
		}
		mix[strings.TrimSpace(k)] = w
	}
	return mix, nil
}

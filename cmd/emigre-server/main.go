// Command emigre-server serves Why-Not explanations over HTTP.
//
//	emigre-server -preset books -addr :8080
//	emigre-server -graph store.json -item-types item -edge-types rated,reviewed
//
// Endpoints (JSON):
//
//	GET  /healthz
//	GET  /readyz
//	GET  /stats
//	GET  /recommend?user=Paul&n=10
//	POST /explain   {"user":"Paul","wni":"Harry Potter","mode":"remove","method":"powerset"}
//	POST /explain   {"user":"Paul","items":["A","B"],"mode":"add"}        (group)
//	POST /explain   {"user":"Paul","category":"Fantasy","mode":"add"}     (category)
//	POST /diagnose  {"user":"Paul","wni":"The Hobbit","mode":"remove"}
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	emigre "github.com/why-not-xai/emigre"
	"github.com/why-not-xai/emigre/internal/cli"
	"github.com/why-not-xai/emigre/internal/fault"
	"github.com/why-not-xai/emigre/internal/obs"
	"github.com/why-not-xai/emigre/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("emigre-server: ")
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		graphPath = flag.String("graph", "", "JSON graph file from emigre-gen")
		preset    = flag.String("preset", "", "built-in graph: books")
		itemTypes = flag.String("item-types", "item", "comma-separated recommendable node types")
		edgeTypes = flag.String("edge-types", "rated,reviewed", "comma-separated T_e (explanation edge types)")
		addType   = flag.String("add-type", "rated", "edge type used for Add-mode suggestions")
		alpha     = flag.Float64("alpha", 0.15, "PPR teleportation probability")
		epsilon   = flag.Float64("epsilon", 2.7e-8, "local-push residual threshold")
		beta      = flag.Float64("beta", 1, "transition mix: 1=weighted walk, 0=uniform")
		maxTests  = flag.Int("max-tests", 200, "CHECK budget per explanation request")

		explainTimeout = flag.Duration("explain-timeout", server.DefaultExplainTimeout,
			"deadline per /explain or /diagnose request (0 = no deadline)")
		maxConcurrent = flag.Int("max-concurrent", server.DefaultMaxConcurrent,
			"units of explanation work allowed to run at once")
		queueDepth = flag.Int("queue-depth", server.DefaultQueueDepth,
			"requests allowed to wait for a slot before 503 (0 = no queue)")
		cacheEntries = flag.Int("cache-entries", emigre.DefaultPPRCacheEntries,
			"PPR-vector cache capacity in entries (0 = caching disabled)")
		cacheBytes = flag.Int64("cache-bytes", emigre.DefaultPPRCacheBytes,
			"PPR-vector cache capacity in bytes (0 = caching disabled)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second,
			"how long to wait for in-flight requests on shutdown")
		drainGrace = flag.Duration("drain-grace", server.DefaultDrainGrace,
			"how long /readyz serves 503 while still accepting connections before the listener closes (give health probers at least one interval; 0 = immediate)")
		noDegrade = flag.Bool("no-degrade", false,
			"disable partial answers: deadline-squeezed explanations 504 instead of answering with the unverified partial of their interrupted search")
		debugAddr = flag.String("debug-addr", "",
			"optional second listen address serving net/http/pprof, /metrics and /debug/fault; keep it private (empty = off)")
		failpoints = flag.String("failpoints", os.Getenv("EMIGRE_FAILPOINTS"),
			"fault-injection schedule, e.g. 'pprcache.fill=error(boom)*1;emigre.check=sleep(25ms)' (default $EMIGRE_FAILPOINTS; test/chaos use only)")
		faultSeed = flag.Int64("fault-seed", 0,
			"seed for probabilistic failpoints (0 = nondeterministic)")
	)
	flag.Parse()

	if *faultSeed != 0 {
		fault.SetSeed(*faultSeed)
	}
	if *failpoints != "" {
		if err := fault.Apply(*failpoints); err != nil {
			log.Fatalf("-failpoints: %v", err)
		}
		log.Printf("fault injection armed: %d site(s) — NOT for production traffic", fault.ArmedCount())
	}

	g, err := cli.LoadGraph(*graphPath, *preset)
	if err != nil {
		log.Fatal(err)
	}
	cfg := emigre.RecommenderConfig{PPR: emigre.DefaultPPRParams(), Beta: *beta}
	cfg.PPR.Alpha = *alpha
	cfg.PPR.Epsilon = *epsilon
	cfg.ItemTypes, err = cli.NodeTypeIDs(g, *itemTypes)
	if err != nil {
		log.Fatal(err)
	}
	r, err := emigre.NewRecommender(g, cfg)
	if err != nil {
		log.Fatal(err)
	}
	allowed, err := cli.EdgeTypeIDs(g, *edgeTypes)
	if err != nil {
		log.Fatal(err)
	}
	addIDs, err := cli.EdgeTypeIDs(g, *addType)
	if err != nil {
		log.Fatal(err)
	}
	// The flags read "0 = disabled"; Config reads "0 = default,
	// negative = disabled". Same for the queue depth and cache bounds.
	timeout := *explainTimeout
	if timeout == 0 {
		timeout = -1
	}
	queue := *queueDepth
	if queue == 0 {
		queue = -1
	}
	entries := *cacheEntries
	if entries == 0 {
		entries = -1
	}
	bytes := *cacheBytes
	if bytes == 0 {
		bytes = -1
	}
	srv, err := server.New(server.Config{
		Graph:       g,
		Recommender: r,
		Options: emigre.Options{
			AllowedEdgeTypes: emigre.NewEdgeTypeSet(allowed...),
			AddEdgeType:      addIDs[0],
			MaxTests:         *maxTests,
		},
		ExplainTimeout:  timeout,
		MaxConcurrent:   *maxConcurrent,
		QueueDepth:      queue,
		CacheEntries:    entries,
		CacheBytes:      bytes,
		DisableDegraded: *noDegrade,
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving %d nodes / %d edges on %s", g.NumNodes(), g.NumEdges(), *addr)
	httpServer := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// The debug listener is opt-in and separate from the API address so
	// profiling endpoints never face the public side: pprof handlers are
	// registered explicitly on a private mux (importing net/http/pprof
	// for side effects would mount them on http.DefaultServeMux for
	// every caller of this package's libraries).
	if *debugAddr != "" {
		dm := http.NewServeMux()
		dm.HandleFunc("/debug/pprof/", pprof.Index)
		dm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dm.Handle("/metrics", obs.Handler(obs.Default()))
		dm.Handle("/debug/fault", fault.Handler())
		debugServer := &http.Server{
			Addr:              *debugAddr,
			Handler:           dm,
			ReadHeaderTimeout: 10 * time.Second,
		}
		log.Printf("debug endpoints (pprof, /metrics) on %s", *debugAddr)
		// The listener runs for the process lifetime: ListenAndServe
		// returns when the deferred debugServer.Close fires at shutdown.
		go func() {
			if err := debugServer.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("debug listener: %v", err)
			}
		}()
		defer debugServer.Close()
	}

	// Serve until SIGINT/SIGTERM, then drain: flip /readyz to 503 so
	// load balancers stop sending traffic, and give in-flight
	// explanations up to -drain-timeout to finish.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	// The listener runs for the process lifetime: ListenAndServe returns
	// into the buffered errc when Shutdown drains below.
	go func() { errc <- httpServer.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		stop()
		log.Printf("shutdown signal received, draining (readiness grace %v, then up to %v for in-flight work)", *drainGrace, *drainTimeout)
		if err := server.DrainOrdered(srv, httpServer, *drainGrace, *drainTimeout); err != nil {
			log.Fatalf("drain incomplete: %v", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
		log.Print("drained cleanly")
	}
}

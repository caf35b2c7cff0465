// Command rtlfixerd is the long-running RTLFixer service: a JSON HTTP
// daemon (internal/server) that pools one fixer per configuration so the
// compile cache and retrieval index are shared across requests, with
// bounded admission, request coalescing, a fixed set of -max-inflight
// runners (no batching), per-request deadlines, live /v1/stats metrics,
// and graceful drain on SIGTERM. Coalescing, the memo caches and the
// observed post-fix sim check always run; none has a flag.
//
// Usage:
//
//	rtlfixerd                            # serve on 127.0.0.1:8080
//	rtlfixerd -addr 127.0.0.1:0          # serve on a random free port
//	rtlfixerd -max-inflight 8 -queue 32  # size admission control
//	rtlfixerd -pprof -log-requests       # profiler + structured access log
//	rtlfixerd -trace=false               # disable request tracing
//
// Tracing is on by default: every request carries a span tree
// (admission → queue → run → agent iterations → compile/rag/llm → sim)
// retrievable at GET /v1/trace/{id}; GET /metrics serves Prometheus
// text exposition; -pprof mounts net/http/pprof under /debug/pprof/.
//
// Resilience: /v1/readyz answers 503 until the default fixer is
// prewarmed (-prewarm, on by default) and again while draining;
// /v1/healthz is pure liveness. Panicking
// runs and handlers are isolated into typed 500s, a runaway sim check
// is stopped by its watchdog, and -fault-profile installs a
// deterministic fault-injection schedule (internal/fault) for chaos
// testing — see scripts/chaos_smoke.sh.
//
// The daemon prints exactly one line to stdout — "rtlfixerd: listening on
// HOST:PORT" — so scripts can discover a randomly assigned port; all
// other logging goes to stderr. SIGTERM/SIGINT trigger a graceful drain:
// admission stops (readyz flips to 503), admitted requests finish, then
// the process exits 0. The -drain-timeout deadline aborts the drain and
// exits 1; a second signal kills the process immediately via the default
// signal disposition (terminated-by-signal status, not an exit code).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/fault"
	"repro/internal/server"
	"repro/internal/trace"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
	seed := flag.Int64("seed", 1, "base seed for every pooled fixer")
	maxInFlight := flag.Int("max-inflight", 2*runtime.NumCPU(), "max concurrently running fix requests")
	queueDepth := flag.Int("queue", 64, "admitted-but-waiting requests beyond -max-inflight (0 = none)")
	defaultTimeout := flag.Duration("default-timeout", 30*time.Second, "deadline for requests without timeout_ms")
	maxTimeout := flag.Duration("max-timeout", 2*time.Minute, "upper clamp on request deadlines")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long a signal-triggered drain may take")
	tracing := flag.Bool("trace", true, "collect per-request span traces (GET /v1/trace)")
	traceRing := flag.Int("trace-ring", 0, "recent traces retained for /v1/trace (0 = default 256)")
	traceSlow := flag.Duration("trace-slow", 0, "retain traces slower than this past ring eviction (0 = default 500ms)")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	logRequests := flag.Bool("log-requests", false, "write one structured access-log line per request to stderr")
	prewarm := flag.Bool("prewarm", true, "build the default fixer configuration before /v1/readyz turns ready")
	faultProfile := flag.String("fault-profile", "", `chaos testing: inject faults per "point:rate[:duration];..." (see internal/fault)`)
	faultSeed := flag.Int64("fault-seed", 1, "seed for the deterministic fault schedule")
	flag.Parse()

	logger := log.New(os.Stderr, "rtlfixerd: ", log.LstdFlags)

	// Fault injection is strictly opt-in: with no profile no registry is
	// installed and every injection hook is one nil atomic load.
	if *faultProfile != "" {
		reg, err := fault.Parse(*faultProfile, *faultSeed)
		if err != nil {
			logger.Fatalf("fault profile: %v", err)
		}
		fault.Install(reg)
		logger.Printf("fault injection ACTIVE (seed %d): %s", *faultSeed, *faultProfile)
	}

	qd := *queueDepth
	if qd == 0 {
		qd = -1 // server.Config: <0 means zero queue, 0 means default
	}
	var tracer *trace.Collector
	if *tracing {
		tracer = trace.NewCollector(*traceRing, 0, *traceSlow)
	}
	var accessLog *slog.Logger
	if *logRequests {
		accessLog = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	srv := server.New(server.Config{
		Seed:           *seed,
		MaxInFlight:    *maxInFlight,
		QueueDepth:     qd,
		DefaultTimeout: *defaultTimeout,
		MaxTimeout:     *maxTimeout,
		Logf:           logger.Printf,
		Tracing:        tracer,
		AccessLog:      accessLog,
		Prewarm:        *prewarm,
	})

	// The served handler is the server itself unless pprof is on, in
	// which case an outer mux mounts the profiler explicitly — pprof's
	// side-effect registration on http.DefaultServeMux is never served.
	var handler http.Handler = srv
	if *pprofOn {
		outer := http.NewServeMux()
		outer.HandleFunc("/debug/pprof/", pprof.Index)
		outer.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		outer.HandleFunc("/debug/pprof/profile", pprof.Profile)
		outer.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		outer.HandleFunc("/debug/pprof/trace", pprof.Trace)
		outer.Handle("/", srv)
		handler = outer
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatalf("listen: %v", err)
	}
	// The one stdout line: scripts parse the resolved port from it.
	fmt.Printf("rtlfixerd: listening on %s\n", ln.Addr())
	logger.Printf("serving (inflight=%d queue=%d trace=%v pprof=%v)",
		*maxInFlight, *queueDepth, *tracing, *pprofOn)

	httpSrv := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-serveErr:
		logger.Fatalf("serve: %v", err)
	}
	stop() // a second signal kills the process the default way

	logger.Printf("signal received; draining (timeout %v)", *drainTimeout)
	srv.BeginDrain() // readyz flips to 503; new fix work is refused
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Shutdown stops accepting and waits for in-flight handlers, which in
	// turn wait for their flights; Drain then retires the dispatcher.
	httpErr := httpSrv.Shutdown(shutdownCtx)
	drainErr := srv.Drain(shutdownCtx)
	srv.Close()
	if httpErr != nil || drainErr != nil {
		logger.Printf("drain incomplete: http=%v dispatch=%v", httpErr, drainErr)
		os.Exit(1)
	}
	logger.Printf("drained cleanly; bye")
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Fatalf("serve: %v", err)
	}
}

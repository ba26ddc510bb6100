// Command xfdd serves XML FD discovery over HTTP: the discoverxfd
// Engine behind a long-lived, fault-tolerant service.
//
// Usage:
//
//	xfdd [flags]
//
// Endpoints (see docs/INTERNALS.md §13 and the README quickstart):
//
//	POST /v1/discover          synchronous discovery; body is raw XML
//	                           (schema inferred) or a JSON envelope
//	                           {"document": "...", "schema": "..."}
//	POST /v1/jobs              asynchronous discovery; returns a job id
//	GET  /v1/jobs/{id}         job status
//	GET  /v1/jobs/{id}/events  run progress (SSE or ?cursor polling)
//	GET  /v1/jobs/{id}/result  the rendered result once done
//	DELETE /v1/jobs/{id}       cancel the job's run
//	GET  /healthz, /readyz     liveness / readiness
//	GET  /v1/stats             operational counters
//	GET  /metrics              Prometheus text exposition (RED metrics,
//	                           admission gauges, engine counters; see
//	                           docs/INTERNALS.md §17)
//
// Every response carries a W3C traceparent (joining the caller's
// trace when the request carried one) and an X-Request-Id; run events
// in the -trace JSONL are stamped with the same ids. -slow-run
// enables a per-stage timing report for requests over the threshold;
// cmd/xfdtop is a live terminal view over /metrics and /v1/stats.
//
// Request parameters: ?timeout= bounds the run's wall clock (clamped
// to -max-timeout), ?degrade=truncate serves partial results on
// budget exhaustion instead of 504, ?max_tuples= / ?max_nodes= /
// ?max_depth= / ?max_lattice_level= tighten (never exceed) the
// server's limits, and the X-Tenant header selects the admission
// quota bucket. A resident document's limits are set when POST
// /v1/documents creates it, so its discover endpoint answers the limit
// parameters with 400.
//
// Overload is shed with 429 + Retry-After once the admission queue
// fills; SIGTERM/SIGINT drains — readiness flips to 503, in-flight
// runs complete (bounded by -drain-timeout), traces and metrics are
// flushed — then the process exits. Exit status is 0 after a clean
// drain, 1 on a serve or drain error, 2 on a usage error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"discoverxfd"
	"discoverxfd/internal/cliutil"
	"discoverxfd/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	maxConcurrent := flag.Int("max-concurrent", 0, "concurrent discovery runs (0 = GOMAXPROCS)")
	queueDepth := flag.Int("queue-depth", 0, "admitted requests that may wait beyond the running set (0 = 2x max-concurrent, negative = none)")
	tenantQuota := flag.Int("tenant-quota", 0, "per-tenant cap on running+queued requests (0 = uncapped)")
	maxBody := flag.Int64("max-body", 32<<20, "request body size cap in bytes")
	format := flag.String("format", "xml", "document format assumed for bodies that do not declare one: xml or json")
	defaultTimeout := flag.Duration("default-timeout", 30*time.Second, "per-request wall-clock budget when the request names none (0 = none)")
	maxTimeout := flag.Duration("max-timeout", 5*time.Minute, "cap on the per-request ?timeout= budget (0 = uncapped)")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint on 429/503 responses")
	maxJobs := flag.Int("max-jobs", 64, "job records retained before the oldest finished jobs are evicted")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long SIGTERM waits for in-flight runs before aborting them")
	maxLHS := flag.Int("maxlhs", 0, "bound on LHS attributes per hierarchy level (0 = unbounded)")
	maxNodes := flag.Int("maxnodes", 0, "reject documents with more than this many data nodes (0 = unlimited)")
	maxDepth := flag.Int("maxdepth", 0, "reject documents nested deeper than this many elements (0 = parser default)")
	maxTuples := flag.Int("maxtuples", 0, "ingest at most this many tuples per run, truncating the result (0 = unlimited)")
	maxLevel := flag.Int("maxlevel", 0, "cap the lattice level explored per relation (0 = unbounded)")
	tracePath := flag.String("trace", "", "write every run's trace events to this file as JSONL")
	slowRun := flag.Duration("slow-run", 0, "log a slow-request report with per-stage timings for requests outliving this threshold (0 = off)")
	verbose := flag.Bool("v", false, "log run/stage/relation progress to stderr")
	veryVerbose := flag.Bool("vv", false, "like -v plus throttled per-level and per-target detail")
	metrics := flag.Bool("metrics", false, "print the server's stats snapshot as JSON on stderr after drain")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: xfdd [flags]\n\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *format != "xml" && *format != "json" {
		fmt.Fprintf(os.Stderr, "xfdd: unknown -format %q (use xml or json)\n", *format)
		os.Exit(2)
	}

	limits := discoverxfd.Limits{
		MaxDepth:        *maxDepth,
		MaxNodes:        *maxNodes,
		MaxTuples:       *maxTuples,
		MaxLatticeLevel: *maxLevel,
	}
	if err := limits.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "xfdd: %v\n", err)
		os.Exit(2)
	}

	tracing, err := cliutil.Open(*tracePath, *verbose, *veryVerbose)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xfdd: %v\n", err)
		os.Exit(1)
	}

	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	// The signal context only *triggers* the drain; it must not be the
	// server's lifecycle context (which cancelling aborts every
	// in-flight run — the opposite of a graceful drain). Drain itself
	// aborts stragglers through the lifecycle context when the grace
	// period expires.
	srv := server.New(context.Background(), server.Config{
		MaxConcurrent:  *maxConcurrent,
		QueueDepth:     *queueDepth,
		TenantQuota:    *tenantQuota,
		MaxBodyBytes:   *maxBody,
		DefaultFormat:  *format,
		DefaultTimeout: *defaultTimeout,
		MaxTimeout:     *maxTimeout,
		RetryAfter:     *retryAfter,
		MaxJobs:        *maxJobs,
		Limits:         limits,
		Options:        discoverxfd.Options{MaxLHS: *maxLHS},
		Trace:          tracing.Tracer(),
		Log:            log,
		SlowRun:        *slowRun,
	})
	// No BaseContext override: a request's context must die with its
	// connection (client-disconnect backpressure), not with the first
	// SIGTERM — in-flight runs get the drain's grace period.
	httpSrv := &http.Server{
		Addr:    *addr,
		Handler: srv.Handler(),
	}

	// Serve until the first signal, then drain: stop accepting (the
	// listener closes via Shutdown), complete in-flight runs bounded
	// by -drain-timeout, flush the trace, and exit.
	errc := make(chan error, 1)
	//lint:governed the serve goroutine is joined via errc on both exit paths; Shutdown unblocks it.
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Info("xfdd listening", "addr", *addr)

	exit := 0
	select {
	case err := <-errc:
		// Listener died before any signal: fatal.
		fmt.Fprintf(os.Stderr, "xfdd: %v\n", err)
		exit = 1
	case <-ctx.Done():
		log.Info("signal received, draining", "grace", *drainTimeout)
		stop() // restore default signal behavior: a second signal kills
		dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		if err := srv.Drain(dctx); err != nil {
			fmt.Fprintf(os.Stderr, "xfdd: %v\n", err)
			exit = 1
		}
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := httpSrv.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "xfdd: shutdown: %v\n", err)
			exit = 1
		}
		scancel()
		cancel()
		<-errc // ListenAndServe has returned ErrServerClosed
	}

	if err := tracing.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "xfdd: %v\n", err)
		exit = 1
	}
	if *metrics {
		if err := cliutil.WriteMetrics(os.Stderr, srv.Stats()); err != nil {
			fmt.Fprintf(os.Stderr, "xfdd: %v\n", err)
		}
	}
	os.Exit(exit)
}

// Package server is xfdd's HTTP layer: the discovery engine behind a
// long-lived, fault-tolerant service. It exposes synchronous
// discovery (POST /v1/discover), an async job API (POST /v1/jobs,
// GET /v1/jobs/{id}) with live progress streamed from the run's trace
// events, resident documents (POST /v1/documents, updated in place by
// PATCH and re-discovered incrementally), and the operational
// endpoints /healthz, /readyz, /v1/stats and /metrics.
//
// The interesting part is not the routing but the robustness
// contract, built from the library's governance primitives:
//
//   - Admission control: a bounded queue with per-tenant concurrency
//     quotas (see admission). Saturation sheds load with
//     429 + Retry-After instead of buffering unboundedly.
//   - Backpressure and cancellation: every run executes under the
//     request context, so a client disconnect aborts its run through
//     the engine's governor; the per-request timeout composes with
//     Limits.Deadline (the run honors the earlier of the two).
//   - Limits: request parameters may only tighten the server's
//     Limits. A resident document's are fixed when it is created, so
//     its discover endpoint rejects limit parameters with 400.
//   - Graceful degradation: ?degrade=truncate turns budget
//     exhaustion into a 200 carrying the partial Result (with
//     Stats.Truncated set) instead of a 504 — the anytime-serving
//     mode. Drain completes in-flight runs, rejects new work with
//     503, and leaves the trace flushable before exit.
//   - Fault containment: a recovery middleware converts handler and
//     engine-stage panics into 500s with the run span closed; the
//     Config.Fault hook gives the chaos tests named fault points in
//     the server layer itself.
//
// See docs/INTERNALS.md §13 for the architecture and the
// admission/drain state machine.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"discoverxfd"
	"discoverxfd/internal/trace"
)

// Config configures a Server. The zero value serves with the
// defaults noted on each field.
type Config struct {
	// MaxConcurrent is the number of discovery runs executing at
	// once; further admitted requests wait in the queue. Default
	// GOMAXPROCS.
	MaxConcurrent int
	// QueueDepth is how many admitted requests may wait beyond the
	// running set before the server sheds load with 429. Default
	// 2×MaxConcurrent; negative means no queue at all (shed the moment
	// every slot is busy).
	QueueDepth int
	// TenantQuota caps one tenant's running+queued requests (tenants
	// are identified by the X-Tenant header). 0 means no per-tenant
	// cap.
	TenantQuota int
	// MaxBodyBytes caps the request body; larger uploads fail with
	// 413. Default 32 MiB.
	MaxBodyBytes int64
	// DefaultFormat is the document format assumed for request bodies
	// that do not declare one ("xml" or "json"; default "xml"). Bodies
	// with Content-Type application/json negotiate for themselves: an
	// envelope's "format" member names its embedded document's format,
	// and a bare JSON body is a JSON document.
	DefaultFormat string
	// DefaultTimeout is the per-request wall-clock budget applied
	// when the request names none (?timeout=). 0 means none.
	DefaultTimeout time.Duration
	// MaxTimeout caps the per-request budget a client may ask for;
	// larger or absent requests are clamped to it. 0 means uncapped.
	MaxTimeout time.Duration
	// RetryAfter is the Retry-After hint attached to 429 and 503
	// responses. Default 1s.
	RetryAfter time.Duration
	// MaxJobs bounds the job registry; the oldest finished jobs are
	// evicted beyond it. Default 64.
	MaxJobs int
	// MaxDocuments bounds the resident-document store (the
	// incremental-discovery surface: POST /v1/documents). Creation
	// beyond the cap fails with 409 until a document is deleted —
	// resident documents are client-owned state and never evicted
	// silently. Default 16.
	MaxDocuments int
	// FeedCapacity is the per-job progress ring (most recent events
	// retained for SSE/polling). Default 256.
	FeedCapacity int
	// Limits is the server-wide resource envelope. Per-request limit
	// parameters may tighten these but never exceed them.
	Limits discoverxfd.Limits
	// Options is the base discovery configuration (MaxLHS, approximate
	// discovery, …). Its Trace and RelationHook fields
	// are ignored: tracing is wired per request from Trace below, and
	// the hook is a chaos-build concern (Fault).
	Options discoverxfd.Options
	// Trace, when non-nil, receives every run's trace events (the
	// durable backend — xfdd wires the -trace JSONL file here). Job
	// progress feeds are layered on top per run.
	Trace trace.Tracer
	// Log receives the server's operational log; nil discards it.
	Log *slog.Logger
	// SlowRun, when positive, is the latency threshold beyond which a
	// request earns a slow-request log line. A request that served a
	// Result adds its run's stage timings and wall time, read from
	// Result.Stats; it needs no tracing. 0 disables the report.
	SlowRun time.Duration
	// Fault, when non-nil, is invoked at the server's named fault
	// points with the request headers — the chaos-test seam (see
	// faultinject.HeaderFaultHook and the fault-point table in
	// docs/INTERNALS.md §13). It also arms the X-Fault-Relation
	// header for engine-stage faults. Production servers leave it
	// nil, which disables all of it.
	Fault func(point string, h http.Header)
}

// withDefaults resolves the zero fields.
func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	switch {
	case c.QueueDepth == 0:
		c.QueueDepth = 2 * c.MaxConcurrent
	case c.QueueDepth < 0:
		c.QueueDepth = 0
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.DefaultFormat == "" {
		c.DefaultFormat = "xml"
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 64
	}
	if c.MaxDocuments <= 0 {
		c.MaxDocuments = 16
	}
	if c.FeedCapacity <= 0 {
		c.FeedCapacity = 256
	}
	if c.Log == nil {
		c.Log = slog.New(discardHandler{})
	}
	return c
}

// Server is the xfdd HTTP service. Construct with New, mount Handler
// on an http.Server, and call Drain before exit. All methods are safe
// for concurrent use.
type Server struct {
	cfg   Config
	base  context.Context // lifecycle context for async jobs
	abort context.CancelFunc
	adm   *admission
	jobs  *registry
	docs  *docStore
	stats *counters
	met   *serverMetrics
	mux   *http.ServeMux

	draining  atomic.Bool
	drainOnce sync.Once
	drained   chan struct{} // closed once every in-flight run is done
}

// New constructs a Server. ctx is the server's lifecycle context:
// async jobs run under it (bounded by their own timeouts), so
// cancelling it aborts every job still running after Drain's grace
// period.
func New(ctx context.Context, cfg Config) *Server {
	cfg = cfg.withDefaults()
	base, abort := context.WithCancel(ctx)
	s := &Server{
		cfg:     cfg,
		base:    base,
		abort:   abort,
		adm:     newAdmission(cfg.MaxConcurrent, cfg.QueueDepth, cfg.TenantQuota),
		stats:   &counters{},
		drained: make(chan struct{}),
	}
	s.jobs = newRegistry(cfg.MaxJobs)
	s.docs = newDocStore(cfg.MaxDocuments)
	s.met = newServerMetrics(s)
	s.mux = s.routes()
	return s
}

// Handler returns the server's root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// routes wires the endpoint table. Method+wildcard patterns need Go
// 1.22's ServeMux. Every route passes through the instrumentation
// middleware (outermost, so sheds and contained panics are observed
// too); the route label is the pattern path, keeping per-id URLs out
// of the metric label space.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.Handler) {
		_, route, _ := strings.Cut(pattern, " ")
		mux.Handle(pattern, s.instrument(route, h))
	}
	handle("GET /healthz", http.HandlerFunc(s.handleHealthz))
	handle("GET /readyz", http.HandlerFunc(s.handleReadyz))
	handle("GET /v1/stats", http.HandlerFunc(s.handleStats))
	handle("GET /metrics", http.HandlerFunc(s.handleMetrics))
	handle("POST /v1/discover", s.guard(s.handleDiscover))
	handle("POST /v1/jobs", s.guard(s.handleSubmitJob))
	handle("GET /v1/jobs/{id}", s.recovered(s.handleJobStatus))
	handle("GET /v1/jobs/{id}/result", s.recovered(s.handleJobResult))
	handle("GET /v1/jobs/{id}/events", s.recovered(s.handleJobEvents))
	handle("DELETE /v1/jobs/{id}", s.recovered(s.handleJobCancel))
	handle("POST /v1/documents", s.guard(s.handleCreateDocument))
	handle("GET /v1/documents", s.recovered(s.handleListDocuments))
	handle("GET /v1/documents/{id}", s.recovered(s.handleGetDocument))
	handle("DELETE /v1/documents/{id}", s.recovered(s.handleDeleteDocument))
	handle("PATCH /v1/documents/{id}", s.guard(s.handleUpdateDocument))
	handle("POST /v1/documents/{id}/discover", s.guard(s.handleDiscoverDocument))
	return mux
}

// guard wraps a work-submitting handler: recovery first, then the
// drain gate (503 while shutting down — health endpoints and job
// reads stay up).
func (s *Server) guard(h http.HandlerFunc) http.Handler {
	return s.recovered(func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			s.stats.rejectedDraining.Add(1)
			s.writeError(w, r, ErrDraining)
			return
		}
		h(w, r)
	})
}

// recovered converts a handler panic into a 500 instead of killing
// the process: one poisoned request must not take down the service.
// Engine-stage panics inside a run never reach here — the run's own
// panic barrier converts them to errors with the run span closed —
// so this is the containment for the server layer itself.
func (s *Server) recovered(h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				s.stats.panics.Add(1)
				s.cfg.Log.Error("handler panic", "path", r.URL.Path, "panic", fmt.Sprint(p))
				// Best effort: if the handler already wrote, this is a
				// no-op and the client sees a truncated response.
				writeJSONStatus(w, http.StatusInternalServerError,
					map[string]string{"error": "internal server error"})
			}
		}()
		s.fault("handler", r)
		h(w, r)
	})
}

// fault triggers the named server-layer fault point (chaos builds
// only; a nil hook makes this free).
func (s *Server) fault(point string, r *http.Request) {
	if s.cfg.Fault != nil {
		s.cfg.Fault(point, r.Header)
	}
}

// handleDiscover is POST /v1/discover: parse, admit, run, render —
// synchronously, under the request's composed deadline.
func (s *Server) handleDiscover(w http.ResponseWriter, r *http.Request) {
	req, err := s.decodeParams(r)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	ctx := r.Context()
	if req.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, req.timeout)
		defer cancel()
	}
	eng := s.requestEngine(r, req.opts)
	defer s.met.retire(eng)
	s.fault("decode", r)
	if err := s.decodeBody(ctx, w, r, eng, req); err != nil {
		s.writeError(w, r, err)
		return
	}

	release, err := s.adm.Acquire(ctx, req.tenant)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	defer release()

	s.stats.accepted.Add(1)
	req.fire("admitted")
	res, err := eng.Discover(ctx, req.doc, req.schema)
	if err != nil {
		s.stats.failed.Add(1)
		s.writeError(w, r, err)
		return
	}
	s.writeResult(w, r, res, req.degrade)
}

// writeResult serves a finished synchronous run: it counts the run,
// notes it on the request for the slow-request report, answers 504
// for a deadline truncation the client did not opt into (see
// degradeStatus), and otherwise writes the Result JSON, flagging a
// partial one with X-Truncated.
func (s *Server) writeResult(w http.ResponseWriter, r *http.Request, res *discoverxfd.Result, degrade bool) {
	s.fault("result", r)
	s.finishRun(res)
	if in := instrFrom(r.Context()); in != nil {
		in.res = res
	}
	if status, ok := s.degradeStatus(res, degrade); !ok {
		writeJSONStatus(w, status, map[string]string{
			"error":  "deadline exceeded: " + res.Stats.TruncatedReason,
			"detail": "re-request with ?degrade=truncate to accept the partial result",
		})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if res.Stats.Truncated {
		w.Header().Set("X-Truncated", "true")
	}
	if err := discoverxfd.WriteJSON(w, res); err != nil {
		s.cfg.Log.Error("writing result", "err", err)
	}
}

// finishRun folds one completed run into the server counters and the
// stage histogram.
func (s *Server) finishRun(res *discoverxfd.Result) {
	s.stats.completed.Add(1)
	if res.Stats.Truncated {
		s.stats.truncated.Add(1)
	}
	s.stats.tuples.Add(int64(res.Stats.Tuples))
	s.stats.latticeNodes.Add(int64(res.Stats.NodesVisited))
	for i, h := range s.met.stages {
		h.Observe(res.Stats.Stages[i].Seconds())
	}
}

// degradeStatus decides how to serve a finished run: a Result
// truncated by the wall-clock deadline is only served when the client
// opted into degraded answers (?degrade=truncate); otherwise the
// deadline behaves like an error (504). Truncation caused by
// explicitly requested caps (max_tuples, max_lattice_level) is always
// served — bounded work was the request.
func (s *Server) degradeStatus(res *discoverxfd.Result, degrade bool) (status int, serve bool) {
	if res.Stats.Truncated && !degrade && strings.Contains(res.Stats.TruncatedReason, "deadline") {
		s.stats.deadline.Add(1)
		return http.StatusGatewayTimeout, false
	}
	return http.StatusOK, true
}

// handleHealthz reports liveness: the process is up.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz reports readiness: 200 while accepting work, 503 once
// draining (load balancers stop routing here before the listener
// closes).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", retryAfterValue(s.cfg.RetryAfter))
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ready")
}

// handleStats serves the server's counter snapshot.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSONStatus(w, http.StatusOK, s.Stats())
}

// Drain moves the server to the draining state and waits for
// in-flight work: new submissions get 503, queued-but-unstarted
// admissions are failed with 503, running syncs and jobs complete,
// and job goroutines are joined. If ctx fires first the remaining
// jobs are aborted through the lifecycle context and the error
// reports how many were cut short. Idempotent; the first caller wins.
func (s *Server) Drain(ctx context.Context) error {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		s.cfg.Log.Info("draining")
		s.adm.Drain()
		//lint:governed the drain joiner is awaited below via the drained channel; when ctx fires first, the work it joins is aborted and it unwinds promptly.
		go func() {
			s.jobs.wait()
			<-s.adm.Idle()
			close(s.drained)
		}()
	})
	select {
	case <-s.drained:
		return nil
	case <-ctx.Done():
		s.abort()   // cancel every straggler through the lifecycle ctx
		<-s.drained // runs unwind promptly once cancelled
		return fmt.Errorf("server: drain cut short (%w); in-flight runs were aborted", ctx.Err())
	}
}

// writeError maps an error onto its HTTP response. Typed decode
// errors carry their own status; admission and library sentinels get
// the robustness-contract statuses (429 with Retry-After for shed
// load, 503 for drain, 400 for usage errors, 504 for deadlines).
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, err error) {
	status := statusOf(err)
	switch status {
	case http.StatusTooManyRequests:
		s.stats.rejectedOverload.Add(1)
		reason := "queue_full"
		if errors.Is(err, ErrTenantOverQuota) {
			reason = "tenant_quota"
		}
		noteReason(r, reason)
		s.observeShed(tenantOf(r), reason)
		w.Header().Set("Retry-After", retryAfterValue(s.cfg.RetryAfter))
	case http.StatusServiceUnavailable:
		noteReason(r, "draining")
		s.observeShed(tenantOf(r), "draining")
		w.Header().Set("Retry-After", retryAfterValue(s.cfg.RetryAfter))
	case http.StatusGatewayTimeout:
		s.stats.deadline.Add(1)
		noteReason(r, "deadline")
	}
	if status >= http.StatusInternalServerError {
		s.cfg.Log.Error("request failed", "path", r.URL.Path, "status", status, "err", err)
	}
	writeJSONStatus(w, status, map[string]string{"error": err.Error()})
}

// statusOf maps an error onto its HTTP status: typed decode errors
// carry their own, admission and library sentinels get the
// robustness-contract statuses (429 for shed load, 503 for drain,
// 400 for usage errors, 504 for deadlines, 499 — nginx's convention,
// the stdlib has none — for a client that went away).
func statusOf(err error) int {
	var he *httpError
	switch {
	case errors.As(err, &he):
		return he.status
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrTenantOverQuota):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, discoverxfd.ErrBadLimits):
		return http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	default:
		return http.StatusInternalServerError
	}
}

// statusClientClosedRequest is nginx's convention for a request
// aborted by its client; no stdlib constant exists. The client never
// sees it — it exists for logs and job records.
const statusClientClosedRequest = 499

func retryAfterValue(d time.Duration) string {
	secs := int(d / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// writeJSONStatus writes v as a JSON response with the given status.
func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// discardHandler is a slog.Handler that drops everything (Config.Log
// nil default; slog.DiscardHandler arrives only in Go 1.24).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }

package server

// instrument.go is the server's observability middleware — the
// outermost layer of every route, so sheds (429/503) and contained
// panics are observed exactly like successes. Per request it:
//
//   - joins the caller's distributed trace: an inbound W3C traceparent
//     header is parsed (malformed ones are ignored per spec — a fresh
//     trace starts instead), a span id is minted for this request, and
//     the resulting traceparent plus X-Request-Id are set on the
//     response before the handler runs, so even an early shed carries
//     them;
//   - emits a request span (request_start/request_end) to the durable
//     trace backend, stamped with the trace_id/request_id pair; runs
//     admitted by the request reuse the same pair via requestTracer,
//     so one grep by trace_id yields the request and its run;
//   - labels the goroutine for profilers (xfd_trace, xfd_request) —
//     the run layer adds xfd_run/xfd_stage on top;
//   - records RED metrics (rate, errors, duration) per route × tenant
//     × status class and the response byte count;
//   - writes one structured access-log line, and a deeper slow-request
//     report with the served run's stage timings when the request
//     outlives Config.SlowRun.
//
// The library path is untouched: all of this lives on the serving
// side of the Options.Trace seam, and requests that never reach a run
// pay only header parsing and two header writes.

import (
	"context"
	"net/http"
	"runtime/pprof"
	"sync"
	"time"

	"discoverxfd"
	"discoverxfd/internal/trace"
)

// ctxKey keys the per-request instrumentation state in the request
// context.
type ctxKey struct{}

// instrRequest is the per-request observability state: the trace
// correlation ids, the shed/decline reason writeError classifies for
// the access log and the shed counters, and the served Result whose
// Stats feed the slow-request report.
type instrRequest struct {
	traceID   string
	requestID string

	mu     sync.Mutex
	reason string // guarded by mu

	// res is written by writeResult on the handler's goroutine, which
	// returns before the middleware reads it.
	res *discoverxfd.Result
}

// setReason records why a request was declined (queue_full,
// tenant_quota, draining, deadline, …); first writer wins so the
// reason names the original classification.
func (in *instrRequest) setReason(reason string) {
	in.mu.Lock()
	if in.reason == "" {
		in.reason = reason
	}
	in.mu.Unlock()
}

func (in *instrRequest) getReason() string {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.reason
}

// instrFrom returns the request's instrumentation state, or nil for a
// request that did not pass through the middleware (direct handler
// tests).
func instrFrom(ctx context.Context) *instrRequest {
	in, _ := ctx.Value(ctxKey{}).(*instrRequest)
	return in
}

// noteReason records a decline reason for the in-flight request, if it
// is instrumented. Free otherwise.
func noteReason(r *http.Request, reason string) {
	if in := instrFrom(r.Context()); in != nil {
		in.setReason(reason)
	}
}

// requestTracer returns the tracer runs admitted by this request hand
// to Options.Trace: the durable backend stamped with the request's
// correlation ids, nil (tracing off) without one. Requests outside the
// middleware fall back to the bare backend.
func (s *Server) requestTracer(r *http.Request) trace.Tracer {
	in := instrFrom(r.Context())
	if in == nil {
		return s.cfg.Trace
	}
	return trace.WithIDs(s.cfg.Trace, in.traceID, in.requestID)
}

// statusRecorder captures the response status and body size for the
// access log and metrics, forwarding Flush for the SSE route.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (rec *statusRecorder) WriteHeader(code int) {
	if rec.status == 0 {
		rec.status = code
	}
	rec.ResponseWriter.WriteHeader(code)
}

func (rec *statusRecorder) Write(b []byte) (int, error) {
	if rec.status == 0 {
		rec.status = http.StatusOK
	}
	n, err := rec.ResponseWriter.Write(b)
	rec.bytes += int64(n)
	return n, err
}

func (rec *statusRecorder) Flush() {
	if f, ok := rec.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// statusClass buckets a status code for the RED counter ("2xx", …).
func statusClass(code int) string {
	switch {
	case code >= 500:
		return "5xx"
	case code >= 400:
		return "4xx"
	case code >= 300:
		return "3xx"
	default:
		return "2xx"
	}
}

// instrument wraps one route with the observability middleware; route
// is the metric/log label (the pattern path, so per-id URLs do not
// explode the label space).
func (s *Server) instrument(route string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		flags := "01"
		var traceID string
		if tp, err := trace.ParseTraceparent(r.Header.Get("traceparent")); err == nil {
			traceID, flags = tp.TraceID, tp.Flags
		} else {
			traceID = trace.NewTraceID()
		}
		requestID := trace.NewSpanID()
		hdr := w.Header()
		hdr.Set("Traceparent", trace.Traceparent{TraceID: traceID, ParentID: requestID, Flags: flags}.String())
		hdr.Set("X-Request-Id", requestID)

		in := &instrRequest{traceID: traceID, requestID: requestID}
		rec := &statusRecorder{ResponseWriter: w}
		r = r.WithContext(context.WithValue(r.Context(), ctxKey{}, in))

		spanTracer := trace.WithIDs(s.cfg.Trace, traceID, requestID)
		trace.Emit(spanTracer, &trace.Event{Kind: trace.KindRequestStart,
			Action: r.Method, Detail: route})

		pprof.Do(r.Context(), pprof.Labels("xfd_trace", traceID, "xfd_request", requestID),
			func(ctx context.Context) {
				h.ServeHTTP(rec, r.WithContext(ctx))
			})

		if rec.status == 0 { // handler wrote nothing: implicit 200
			rec.status = http.StatusOK
		}
		dur := time.Since(start)
		tenant := tenantOf(r)
		s.met.observeRequest(route, tenant, rec, dur)

		trace.Emit(spanTracer, &trace.Event{Kind: trace.KindRequestEnd,
			Action: r.Method, Detail: route, Status: rec.status,
			Bytes: rec.bytes, DurationMS: float64(dur) / float64(time.Millisecond)})

		attrs := []any{
			"method", r.Method,
			"route", route,
			"tenant", tenant,
			"status", rec.status,
			"bytes", rec.bytes,
			"duration", dur,
			"trace_id", traceID,
			"request_id", requestID,
		}
		if reason := in.getReason(); reason != "" {
			attrs = append(attrs, "reason", reason)
		}
		if tr := rec.Header().Get("X-Truncated"); tr != "" {
			attrs = append(attrs, "truncated", true)
		}
		s.cfg.Log.Info("request", attrs...)

		if s.cfg.SlowRun > 0 && dur >= s.cfg.SlowRun {
			slow := append(attrs, "slow_run_threshold", s.cfg.SlowRun)
			if in.res != nil {
				st := &in.res.Stats
				for i, stage := range trace.Stages {
					slow = append(slow, stage, st.Stages[i])
				}
				slow = append(slow, "wall", st.WallTime)
			}
			s.cfg.Log.Warn("slow request", slow...)
		}
	})
}

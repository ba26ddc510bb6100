// Package trace is the run-scoped tracing and progress layer of the
// discovery engine. The core pipeline emits typed Events — stage
// spans for the plan→traverse→minimize→verify→assemble pipeline,
// per-relation traversal spans, per-lattice-level progress with live
// partition-cache gauges, partition-target lifecycle events, and
// governor events for worker spawns and budget truncation — to a
// Tracer supplied via Options. Two stdlib-only backends are provided:
// a JSONL event writer (one JSON object per line, see JSONL) and a
// throttled log/slog progress logger (see Progress).
//
// Nil-safety contract: a nil Tracer means tracing is off, and every
// helper in this package (Emit, WithRun, Multi) tolerates nil. The
// engine's hot paths guard event construction behind a single
// `tracer != nil` pointer check so the nil-tracer fast path adds no
// measurable overhead (the E13 bench gate pins this).
//
// Concurrency contract: a Tracer must be safe for concurrent Emit
// calls — one Tracer may serve concurrent runs, and a product worker
// that sees a run's deadline pass emits the governor's truncate event.
// Backends in this package synchronize internally with a mutex and
// spawn no goroutines of their own (the xfdlint govdiscipline
// analyzer enforces the no-spawn rule repo-wide).
package trace

import "time"

// Kind identifies the type of a trace event. The set of kinds, and
// the fields each kind carries, are the event schema documented in
// docs/INTERNALS.md §12 and enforced by ValidateJSONL.
type Kind string

const (
	// KindRunStart opens a discovery run: run, relations, tuples.
	KindRunStart Kind = "run_start"
	// KindRunEnd closes it: run, ms, truncated (and detail = the
	// truncation reason), error if the run failed.
	KindRunEnd Kind = "run_end"
	// KindStageStart/KindStageEnd bracket one pipeline stage: run,
	// stage ∈ {plan, traverse, minimize, verify, assemble}; the end
	// event carries ms.
	KindStageStart Kind = "stage_start"
	KindStageEnd   Kind = "stage_end"
	// KindRelationStart/KindRelationEnd bracket one relation's lattice
	// traversal: run, relation (pivot path), tuples, attrs; the end
	// event carries ms and the relation's node total.
	KindRelationStart Kind = "relation_start"
	KindRelationEnd   Kind = "relation_end"
	// KindLevel reports one completed lattice level of a relation:
	// level, nodes visited, products computed, cache hits/misses and
	// hit rate for the level, plus the cache's live byte gauge.
	KindLevel Kind = "level"
	// KindTarget reports a partition-target lifecycle step: relation,
	// action ∈ {create, propagate, drop}, pairs (the target's row
	// count), and for drops a detail naming the cause.
	KindTarget Kind = "target"
	// KindGovernor reports a resource-governor action: action ∈
	// {worker_spawn, truncate}, with workers counting a spawn batch
	// and detail naming what was spawned or why the run truncated.
	KindGovernor Kind = "governor"
	// KindCheck reports one constraint evaluation (xfdcheck): detail
	// is the constraint, action ∈ {holds, violated}.
	KindCheck Kind = "check"
	// KindUpdateApply closes an incremental document update span: ops
	// applied, relations touched, tuples (total dirty rows), ms, and
	// error if the batch was rejected. Updates run outside discovery
	// runs, so the event carries no run id.
	KindUpdateApply Kind = "update_apply"
	// KindPartitionPatch reports the warm-layer patch of one touched
	// relation after an update: relation, tuples (touched rows), attrs
	// (dirty columns), and the fate of its retained partitions —
	// kept (shared untouched), patched (a dirty column's partition
	// rebuilt from the column's codes, or Π_∅ after a resize),
	// dropped (stale multi-column sets).
	KindPartitionPatch Kind = "partition_patch"
	// KindRequestStart/KindRequestEnd bracket one HTTP request served
	// by xfdd (internal/server's instrumentation middleware): trace_id
	// and request_id (the W3C trace-context identifiers, see
	// Traceparent), action = the HTTP method, detail = the route
	// pattern; the end event carries status, bytes written, and ms.
	// Requests are not runs — they carry no run id, and the discovery
	// run a request admits is correlated through the shared trace_id
	// instead of span nesting.
	KindRequestStart Kind = "request_start"
	KindRequestEnd   Kind = "request_end"
)

// Event is one typed trace event. Unused fields stay at their zero
// value and are omitted from the JSONL encoding; which fields a kind
// carries is part of the schema (see the Kind constants). Emitters
// hand the event to the Tracer synchronously and may reuse nothing:
// a backend must finish with the pointer before returning (copy it if
// it needs to retain the event).
type Event struct {
	Kind Kind `json:"event"`
	// Time is stamped by the backend at emission (the core leaves it
	// zero so that event content stays deterministic for a serial run).
	Time time.Time `json:"t"`
	// Run identifies the discovery run, unique within the process.
	Run      string `json:"run,omitempty"`
	Stage    string `json:"stage,omitempty"`
	Relation string `json:"relation,omitempty"`
	Level    int    `json:"level,omitempty"`

	// TraceID and RequestID are the W3C trace-context identifiers of
	// the HTTP request this event belongs to (32 and 16 lowercase hex
	// digits; see Traceparent). The serving layer stamps them via
	// WithIDs, so every event of a request — the request span and all
	// of its run's events — carries the same pair, linking a JSONL
	// trace line back to the request (and to the caller's distributed
	// trace). Library runs leave them empty.
	TraceID   string `json:"trace_id,omitempty"`
	RequestID string `json:"request_id,omitempty"`

	Tuples    int `json:"tuples,omitempty"`
	Attrs     int `json:"attrs,omitempty"`
	Relations int `json:"relations,omitempty"`
	Nodes     int `json:"nodes,omitempty"`
	Products  int `json:"products,omitempty"`

	CacheHits   int     `json:"cacheHits,omitempty"`
	CacheMisses int     `json:"cacheMisses,omitempty"`
	HitRate     float64 `json:"hitRate,omitempty"`
	// CacheBytes is the partition cache's live byte gauge at emission.
	CacheBytes int64 `json:"cacheBytes,omitempty"`

	Action  string `json:"action,omitempty"`
	Detail  string `json:"detail,omitempty"`
	Pairs   int    `json:"pairs,omitempty"`
	Workers int    `json:"workers,omitempty"`

	// Update-path fields (update_apply, partition_patch).
	Ops     int `json:"ops,omitempty"`
	Kept    int `json:"kept,omitempty"`
	Patched int `json:"patched,omitempty"`
	Dropped int `json:"dropped,omitempty"`

	// Request-span fields (request_end): the response status code and
	// body bytes written.
	Status int   `json:"status,omitempty"`
	Bytes  int64 `json:"bytes,omitempty"`

	// DurationMS closes a span (stage_end, relation_end, run_end).
	DurationMS float64 `json:"ms,omitempty"`
	Truncated  bool    `json:"truncated,omitempty"`
	Err        string  `json:"error,omitempty"`
}

// Tracer receives the engine's trace events. Implementations must be
// safe for concurrent use and must not retain the *Event past the
// Emit call. A nil Tracer disables tracing; use the package helpers
// (Emit, WithRun, Multi), which all tolerate nil.
type Tracer interface {
	Emit(ev *Event)
}

// Emit forwards ev to t, tolerating a nil tracer. Hot paths should
// additionally guard event construction behind their own nil check so
// the disabled path never allocates.
func Emit(t Tracer, ev *Event) {
	if t != nil {
		t.Emit(ev)
	}
}

// runScoped stamps every event with a run id before forwarding.
type runScoped struct {
	t   Tracer
	run string
}

func (r runScoped) Emit(ev *Event) {
	ev.Run = r.run
	r.t.Emit(ev)
}

// WithRun returns a Tracer that stamps every event with the run id.
// A nil tracer stays nil, preserving the disabled fast path.
func WithRun(t Tracer, run string) Tracer {
	if t == nil {
		return nil
	}
	return runScoped{t: t, run: run}
}

// idScoped stamps every event with the request's trace-context
// identifiers before forwarding.
type idScoped struct {
	t         Tracer
	traceID   string
	requestID string
}

func (s idScoped) Emit(ev *Event) {
	ev.TraceID = s.traceID
	ev.RequestID = s.requestID
	s.t.Emit(ev)
}

// WithIDs returns a Tracer that stamps every event with the W3C
// trace-context identifiers of the request it serves (trace_id and
// request_id; see Traceparent). The serving layer wraps its backend
// with WithIDs before handing it to a run's Options, so the run's
// events — stamped with the run id by WithRun on the inside — also
// carry the request correlation on the outside. A nil tracer stays
// nil, preserving the disabled fast path.
func WithIDs(t Tracer, traceID, requestID string) Tracer {
	if t == nil {
		return nil
	}
	return idScoped{t: t, traceID: traceID, requestID: requestID}
}

// multi fans one event out to several backends in order.
type multi []Tracer

func (m multi) Emit(ev *Event) {
	for _, t := range m {
		t.Emit(ev)
	}
}

// Multi combines tracers into one, dropping nils. Zero live tracers
// collapse to nil (tracing off) and a single one is returned as-is,
// so the common one-backend case pays no fan-out indirection.
func Multi(ts ...Tracer) Tracer {
	live := make(multi, 0, len(ts))
	for _, t := range ts {
		if t != nil {
			live = append(live, t)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}

// discard is a Tracer that drops every event. It exists for
// benchmarks that measure event-construction cost apart from backend
// cost (E13's traced-overhead metric).
type discard struct{}

func (discard) Emit(*Event) {}

// Discard drops every event it receives.
var Discard Tracer = discard{}

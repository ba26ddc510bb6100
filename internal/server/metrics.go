package server

// metrics.go is the server's Prometheus surface (GET /metrics): RED
// metrics per route × tenant × status class recorded by the
// instrumentation middleware, admission and registry gauges read at
// scrape time, engine counters bridged from Engine.Metrics, and Go
// runtime stats. All of it renders through internal/telemetry's text
// exposition writer, which CI's smoke job re-validates with the
// package's own checker.
//
// Engine bridging: every engine the server creates serves one request
// (or the job a request submits), and Engine.Metrics is cumulative per
// engine, so the bridge folds each engine's final snapshot into one
// total when its request ends. Scrapes read that total, which only
// grows; a request still in flight shows up once it ends.

import (
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"discoverxfd"
	"discoverxfd/internal/telemetry"
	"discoverxfd/internal/trace"
)

// serverMetrics owns the registry and the hot-path series handles.
type serverMetrics struct {
	reg *telemetry.Registry

	requests  *telemetry.CounterVec   // xfd_http_requests_total{route,tenant,code}
	duration  *telemetry.HistogramVec // xfd_http_request_duration_seconds{route}
	respBytes *telemetry.CounterVec   // xfd_http_response_bytes{route}
	shed      *telemetry.CounterVec   // xfd_requests_shed_total{reason,tenant}
	stages    []*telemetry.Histogram  // xfd_run_stage_duration_seconds{stage}, indexed like trace.Stages

	tenantRunning *telemetry.GaugeVec // xfd_tenant_running{tenant}, refreshed per scrape
	tenantQueued  *telemetry.GaugeVec // xfd_tenant_queued{tenant}

	mu          sync.Mutex
	retired     discoverxfd.Metrics // folded finals of discarded engines; guarded by mu
	mem         runtime.MemStats    // last scrape's runtime stats; guarded by mu
	seenTenants map[string]bool     // tenants ever shown in per-tenant gauges; guarded by mu
}

// newServerMetrics builds the registry for one Server. Gauges close
// over the server so every scrape reads live state.
func newServerMetrics(s *Server) *serverMetrics {
	r := telemetry.NewRegistry()
	m := &serverMetrics{
		reg:         r,
		seenTenants: make(map[string]bool),
	}
	m.requests = r.NewCounter("xfd_http_requests_total",
		"HTTP requests served, by route, tenant, and status class.",
		"route", "tenant", "code")
	m.duration = r.NewHistogram("xfd_http_request_duration_seconds",
		"HTTP request latency, by route.", telemetry.DurationBuckets, "route")
	m.respBytes = r.NewCounter("xfd_http_response_bytes",
		"Response body bytes written, by route.", "route")
	m.shed = r.NewCounter("xfd_requests_shed_total",
		"Requests shed by admission control or drain, by reason and tenant.",
		"reason", "tenant")
	stageDur := r.NewHistogram("xfd_run_stage_duration_seconds",
		"Discovery run stage wall time, by pipeline stage.", telemetry.DurationBuckets, "stage")
	for _, stage := range trace.Stages {
		m.stages = append(m.stages, stageDur.With(stage))
	}

	r.NewGaugeFunc("xfd_queue_depth", "Requests waiting in the admission queue.",
		func() float64 { _, q := s.adm.Load(); return float64(q) })
	r.NewGaugeFunc("xfd_running_runs", "Admission slots currently held by running work.",
		func() float64 { rn, _ := s.adm.Load(); return float64(rn) })
	r.NewGaugeFunc("xfd_jobs_resident", "Jobs held by the job registry.",
		func() float64 { return float64(s.jobs.count()) })
	r.NewGaugeFunc("xfd_documents_resident", "Resident documents held by the store.",
		func() float64 { return float64(s.docs.count()) })
	r.NewGaugeFunc("xfd_draining", "1 while the server is draining, else 0.",
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})
	m.tenantRunning = r.NewGauge("xfd_tenant_running",
		"Admission slots held per tenant.", "tenant")
	m.tenantQueued = r.NewGauge("xfd_tenant_queued",
		"Queued admissions per tenant.", "tenant")

	// Engine counters: the folded finals of retired engines.
	for _, c := range []struct {
		name, help string
		read       func(em *discoverxfd.Metrics) int64
	}{
		{"xfd_engine_runs_started_total", "Discovery runs entered.",
			func(em *discoverxfd.Metrics) int64 { return em.RunsStarted }},
		{"xfd_engine_runs_finished_total", "Discovery runs that produced a Result.",
			func(em *discoverxfd.Metrics) int64 { return em.RunsFinished }},
		{"xfd_engine_runs_truncated_total", "Finished runs whose Result was partial.",
			func(em *discoverxfd.Metrics) int64 { return em.RunsTruncated }},
		{"xfd_engine_runs_failed_total", "Discovery runs that returned an error.",
			func(em *discoverxfd.Metrics) int64 { return em.RunsFailed }},
		{"xfd_engine_warm_seeded_total", "Runs seeded from their hierarchy's warm entry.",
			func(em *discoverxfd.Metrics) int64 { return em.WarmSeeded }},
		{"xfd_engine_updates_applied_total", "Accepted document update batches.",
			func(em *discoverxfd.Metrics) int64 { return em.UpdatesApplied }},
		{"xfd_engine_update_ops_total", "Update operations inside accepted batches.",
			func(em *discoverxfd.Metrics) int64 { return em.UpdateOps }},
		{"xfd_engine_updates_failed_total", "Rejected document update batches.",
			func(em *discoverxfd.Metrics) int64 { return em.UpdatesFailed }},
		{"xfd_engine_partitions_patched_total", "Warm column partitions rebuilt from the column's codes after updates.",
			func(em *discoverxfd.Metrics) int64 { return em.PartitionsPatched }},
		{"xfd_engine_partitions_kept_total", "Warm partitions shared untouched across updates.",
			func(em *discoverxfd.Metrics) int64 { return em.PartitionsKept }},
		{"xfd_engine_partitions_dropped_total", "Warm partitions discarded as stale after updates.",
			func(em *discoverxfd.Metrics) int64 { return em.PartitionsDropped }},
	} {
		read := c.read
		r.NewCounterFunc(c.name, c.help, func() float64 {
			em := s.engineTotals()
			return float64(read(&em))
		})
	}
	r.NewGaugeFunc("xfd_engine_cache_high_water_bytes",
		"Largest partition-cache peak any single run reached.",
		func() float64 { return float64(s.engineTotals().CacheHighWaterBytes) })

	// Go runtime, from the MemStats snapshot refresh() takes per scrape.
	r.NewGaugeFunc("go_goroutines", "Live goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	r.NewGaugeFunc("go_heap_alloc_bytes", "Bytes of allocated heap objects.",
		func() float64 { return float64(m.memStats().HeapAlloc) })
	r.NewCounterFunc("go_gc_cycles_total", "Completed GC cycles.",
		func() float64 { return float64(m.memStats().NumGC) })
	r.NewCounterFunc("go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.",
		func() float64 { return float64(m.memStats().PauseTotalNs) / float64(time.Second) })
	return m
}

// memStats returns the snapshot refresh() took for this scrape.
func (m *serverMetrics) memStats() runtime.MemStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.mem
}

// refresh updates scrape-time state that cannot be a plain gauge
// func: one MemStats read shared by the runtime series, and the
// per-tenant admission gauges (tenants that disappeared are pinned to
// zero so their series do not freeze at a stale value).
func (m *serverMetrics) refresh(s *Server) {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	load := s.adm.PerTenant()
	m.mu.Lock()
	m.mem = mem
	for tenant := range load {
		m.seenTenants[tenant] = true
	}
	tenants := make([]string, 0, len(m.seenTenants))
	for tenant := range m.seenTenants {
		tenants = append(tenants, tenant)
	}
	m.mu.Unlock()
	sort.Strings(tenants)
	for _, tenant := range tenants {
		m.tenantRunning.With(tenant).Set(float64(load[tenant].Running))
		m.tenantQueued.With(tenant).Set(float64(load[tenant].Queued))
	}
}

// observeRequest folds one finished request into the RED series.
func (m *serverMetrics) observeRequest(route, tenant string, rec *statusRecorder, dur time.Duration) {
	m.requests.With(route, tenant, statusClass(rec.status)).Inc()
	m.duration.With(route).Observe(dur.Seconds())
	m.respBytes.With(route).Add(float64(rec.bytes))
}

// observeShed counts one shed/declined request in both the Prometheus
// counter and the per-tenant stats map.
func (s *Server) observeShed(tenant, reason string) {
	s.met.shed.With(reason, tenant).Inc()
	s.stats.shedTenant(tenant, reason)
}

// retire folds a finished engine's final counters into the bridged
// totals. Call it exactly once per engine, when its request (or job)
// ends.
func (m *serverMetrics) retire(eng *discoverxfd.Engine) {
	em := eng.Metrics()
	m.mu.Lock()
	addMetrics(&m.retired, &em)
	m.mu.Unlock()
}

// engineTotals returns the folded counters of every retired engine.
func (s *Server) engineTotals() discoverxfd.Metrics {
	s.met.mu.Lock()
	defer s.met.mu.Unlock()
	return s.met.retired
}

// addMetrics folds src's counters into dst (high-water marks take the
// max; the Stats accumulator is not bridged).
func addMetrics(dst, src *discoverxfd.Metrics) {
	dst.RunsStarted += src.RunsStarted
	dst.RunsFinished += src.RunsFinished
	dst.RunsTruncated += src.RunsTruncated
	dst.RunsFailed += src.RunsFailed
	dst.WarmSeeded += src.WarmSeeded
	dst.Evaluations += src.Evaluations
	dst.UpdatesApplied += src.UpdatesApplied
	dst.UpdateOps += src.UpdateOps
	dst.UpdatesFailed += src.UpdatesFailed
	dst.PartitionsPatched += src.PartitionsPatched
	dst.PartitionsKept += src.PartitionsKept
	dst.PartitionsDropped += src.PartitionsDropped
	if src.CacheHighWaterBytes > dst.CacheHighWaterBytes {
		dst.CacheHighWaterBytes = src.CacheHighWaterBytes
	}
}

// handleMetrics is GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.met.refresh(s)
	s.met.reg.Handler().ServeHTTP(w, r)
}

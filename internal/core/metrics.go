package core

import (
	"sync"

	"discoverxfd/internal/relation"
)

// Metrics is a point-in-time snapshot of an Engine's cumulative
// counters, taken with Engine.Metrics. Counters cover every run the
// engine executed since construction; Totals accumulates the Stats of
// finished runs (failed runs contribute to RunsFailed only — they
// return no Stats). The snapshot is a plain value: encode it or diff
// it freely.
type Metrics struct {
	// RunsStarted counts discovery runs entered; RunsFinished those
	// that returned a Result (truncated counts as finished),
	// RunsTruncated the finished runs whose Result was partial, and
	// RunsFailed those that returned an error (cancellation, panic).
	RunsStarted   int64
	RunsFinished  int64
	RunsTruncated int64
	RunsFailed    int64
	// WarmSeeded counts runs that started from the engine's warm
	// partition layer instead of cold.
	WarmSeeded int64
	// Evaluations counts direct FD evaluations (Engine.Evaluate).
	Evaluations int64
	// UpdatesApplied counts successful ApplyUpdate batches,
	// UpdateOps the individual update operations inside them, and
	// UpdatesFailed the rejected batches.
	UpdatesApplied int64
	UpdateOps      int64
	UpdatesFailed  int64
	// PartitionsPatched / PartitionsKept / PartitionsDropped count the
	// fate of warm-layer partitions across updates: rebuilt from the
	// column's codes, shared untouched, or discarded as stale.
	PartitionsPatched int64
	PartitionsKept    int64
	PartitionsDropped int64
	// CacheHighWaterBytes is the largest partition-cache peak any
	// single run reached.
	CacheHighWaterBytes int64
	// Totals sums the Stats of every finished run; Totals.WallTime is
	// the engine's cumulative discovery wall clock, Totals.Stages its
	// per-stage breakdown, and Totals.PartitionCachePeakBytes mirrors
	// CacheHighWaterBytes (a maximum, not a sum).
	Totals Stats
}

// engineMetrics is the Engine's live counter state: one Metrics
// record, counters and the Stats accumulator alike, guarded by mu.
// Each counter is touched a few times per run, update batch or
// evaluation, so concurrent runs barely contend.
type engineMetrics struct {
	mu sync.Mutex
	m  Metrics // guarded by mu
}

// runStarted records a discovery run entering the pipeline.
func (e *Engine) runStarted() {
	e.met.mu.Lock()
	e.met.m.RunsStarted++
	e.met.mu.Unlock()
}

// warmSeeded records a run seeded from the warm layer.
func (e *Engine) warmSeededRun() {
	e.met.mu.Lock()
	e.met.m.WarmSeeded++
	e.met.mu.Unlock()
}

// evaluated records one direct FD evaluation.
func (e *Engine) evaluated() {
	e.met.mu.Lock()
	e.met.m.Evaluations++
	e.met.mu.Unlock()
}

// updateDone folds one ApplyUpdate batch into the counters.
func (e *Engine) updateDone(cs *relation.Changeset, err error, pr []patchReport) {
	e.met.mu.Lock()
	defer e.met.mu.Unlock()
	m := &e.met.m
	if err != nil {
		m.UpdatesFailed++
		return
	}
	m.UpdatesApplied++
	m.UpdateOps += int64(cs.Ops())
	for _, rep := range pr {
		m.PartitionsPatched += int64(rep.patched)
		m.PartitionsKept += int64(rep.kept)
		m.PartitionsDropped += int64(rep.dropped)
	}
}

// runDone folds a finished (or failed) run into the counters.
func (e *Engine) runDone(res *Result, err error) {
	e.met.mu.Lock()
	defer e.met.mu.Unlock()
	m := &e.met.m
	if err != nil || res == nil {
		m.RunsFailed++
		return
	}
	m.RunsFinished++
	st := &res.Stats
	if st.Truncated {
		m.RunsTruncated++
	}
	m.CacheHighWaterBytes = max(m.CacheHighWaterBytes, st.PartitionCachePeakBytes)
	t := &m.Totals
	mergeStats(t, st)
	t.WallTime += st.WallTime
	for i, d := range st.Stages {
		t.Stages[i] += d
	}
	t.PartitionCacheHits += st.PartitionCacheHits
	t.PartitionCacheMisses += st.PartitionCacheMisses
	t.PartitionCacheEvictions += st.PartitionCacheEvictions
	t.PartitionCachePeakBytes = max(t.PartitionCachePeakBytes, st.PartitionCachePeakBytes)
}

// Metrics returns a snapshot of the engine's cumulative counters. Safe
// for concurrent use with running discoveries.
func (e *Engine) Metrics() Metrics {
	e.met.mu.Lock()
	defer e.met.mu.Unlock()
	return e.met.m
}

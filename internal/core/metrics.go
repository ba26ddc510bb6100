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
	// fate of warm-layer partitions across updates: spliced in place,
	// shared untouched, or discarded as stale.
	PartitionsPatched int64
	PartitionsKept    int64
	PartitionsDropped int64
	// CacheHighWaterBytes is the largest partition-cache peak any
	// single run reached.
	CacheHighWaterBytes int64
	// Totals sums the Stats of every finished run; Totals.WallTime is
	// the engine's cumulative discovery wall clock and
	// Totals.PartitionCachePeakBytes mirrors CacheHighWaterBytes (a
	// maximum, not a sum).
	Totals Stats
}

// engineMetrics is the Engine's live counter state. Every field,
// counters and the Stats accumulator alike, is guarded by mu; each is
// touched a few times per run, update batch or evaluation, so
// concurrent runs barely contend.
type engineMetrics struct {
	mu                  sync.Mutex
	runsStarted         int64 // guarded by mu
	runsFinished        int64 // guarded by mu
	runsTruncated       int64 // guarded by mu
	runsFailed          int64 // guarded by mu
	warmSeeded          int64 // guarded by mu
	evaluations         int64 // guarded by mu
	updatesApplied      int64 // guarded by mu
	updateOps           int64 // guarded by mu
	updatesFailed       int64 // guarded by mu
	partitionsPatched   int64 // guarded by mu
	partitionsKept      int64 // guarded by mu
	partitionsDropped   int64 // guarded by mu
	cacheHighWaterBytes int64 // guarded by mu
	totals              Stats // guarded by mu
}

// runStarted records a discovery run entering the pipeline.
func (e *Engine) runStarted() {
	e.met.mu.Lock()
	e.met.runsStarted++
	e.met.mu.Unlock()
}

// warmSeeded records a run seeded from the warm layer.
func (e *Engine) warmSeededRun() {
	e.met.mu.Lock()
	e.met.warmSeeded++
	e.met.mu.Unlock()
}

// evaluated records one direct FD evaluation.
func (e *Engine) evaluated() {
	e.met.mu.Lock()
	e.met.evaluations++
	e.met.mu.Unlock()
}

// updateDone folds one ApplyUpdate batch into the counters.
func (e *Engine) updateDone(cs *relation.Changeset, err error, pr []patchReport) {
	e.met.mu.Lock()
	defer e.met.mu.Unlock()
	if err != nil {
		e.met.updatesFailed++
		return
	}
	e.met.updatesApplied++
	e.met.updateOps += int64(cs.Ops())
	for _, rep := range pr {
		e.met.partitionsPatched += int64(rep.patched)
		e.met.partitionsKept += int64(rep.kept)
		e.met.partitionsDropped += int64(rep.dropped)
	}
}

// runDone folds a finished (or failed) run into the counters.
func (e *Engine) runDone(res *Result, err error) {
	e.met.mu.Lock()
	defer e.met.mu.Unlock()
	if err != nil || res == nil {
		e.met.runsFailed++
		return
	}
	e.met.runsFinished++
	st := &res.Stats
	if st.Truncated {
		e.met.runsTruncated++
	}
	if st.PartitionCachePeakBytes > e.met.cacheHighWaterBytes {
		e.met.cacheHighWaterBytes = st.PartitionCachePeakBytes
	}
	t := &e.met.totals
	mergeStats(t, st)
	t.WallTime += st.WallTime
	t.PartitionCacheHits += st.PartitionCacheHits
	t.PartitionCacheMisses += st.PartitionCacheMisses
	t.PartitionCacheEvictions += st.PartitionCacheEvictions
	if st.PartitionCachePeakBytes > t.PartitionCachePeakBytes {
		t.PartitionCachePeakBytes = st.PartitionCachePeakBytes
	}
}

// Metrics returns a snapshot of the engine's cumulative counters. Safe
// for concurrent use with running discoveries.
func (e *Engine) Metrics() Metrics {
	var m Metrics
	e.met.mu.Lock()
	defer e.met.mu.Unlock()
	m.RunsStarted = e.met.runsStarted
	m.RunsFinished = e.met.runsFinished
	m.RunsTruncated = e.met.runsTruncated
	m.RunsFailed = e.met.runsFailed
	m.WarmSeeded = e.met.warmSeeded
	m.Evaluations = e.met.evaluations
	m.UpdatesApplied = e.met.updatesApplied
	m.UpdateOps = e.met.updateOps
	m.UpdatesFailed = e.met.updatesFailed
	m.PartitionsPatched = e.met.partitionsPatched
	m.PartitionsKept = e.met.partitionsKept
	m.PartitionsDropped = e.met.partitionsDropped
	m.CacheHighWaterBytes = e.met.cacheHighWaterBytes
	m.Totals = e.met.totals
	return m
}

package core

import (
	"context"
	"slices"
	"sync"
	"time"

	"discoverxfd/internal/partition"
	"discoverxfd/internal/relation"
	"discoverxfd/internal/schema"
)

// Engine is a reusable discovery engine: construct it once from an
// Options value and call Discover / Evaluate from as many goroutines
// as you like. Each call builds its own Run (governor, partition
// cache, stats — see run.go), so concurrent calls are fully
// isolated; the only state an Engine shares across runs is a warm
// layer, keyed by hierarchy, that repeated runs over the same
// document reuse instead of recomputing (the E14 engine-reuse
// benchmark measures the effect).
//
// Sharing contract: partitions are immutable after construction (the
// partimmut analyzer enforces this), and a warm entry's maps and
// outputs are written only by ApplyUpdate under the hierarchy's
// writer lock, so runs holding the reader lock may share them. The
// warm layer is invalidated at run scope — a finishing run replaces
// its hierarchy's entry wholesale with its own (partitions already
// trimmed to the run's MaxPartitionBytes budget), and the oldest
// hierarchies are evicted beyond a small cap. Runs under
// Options.NaivePartitions never seed from nor publish to the warm
// layer: the naive engine is the differential baseline and must stay
// bit-for-bit cold. Neither do Discover calls with warm false: their
// hierarchy was built inside the caller's call, so no later run can
// hit its entry, which would only pin the hierarchy until evicted.
type Engine struct {
	opts Options

	mu   sync.Mutex
	warm []*warmHierarchy // guarded by mu

	// met is the engine's cumulative run instrumentation (see
	// Metrics).
	met engineMetrics
}

// warmHierarchy is what the last run over a hierarchy left behind,
// by Relation.Index: each relation store's partition map, and each
// essential relation's output slot. A later run reads the maps in
// place (see partitionCache.seed) and replays the output of every
// subtree it proves unchanged (see Run.planReuse); so the entry also
// keeps the null tables its outputs were computed under, and the
// hierarchy's batch count it reflects. Nothing writes an entry but
// ApplyUpdate, under the hierarchy's writer lock: it patches the maps
// in place and empties the output slots of the relations it touched.
type warmHierarchy struct {
	h       *relation.Hierarchy
	batches uint64 // h.Batches() the entry reflects

	parts []map[AttrSet]*partition.Partition // nil when no store retained a partition
	outs  []*relOutput                       // nil when the run was truncated

	// Null tables of the run that built outs (see Run.plan).
	anyNull        [][]bool
	nullsAtOrAbove []bool
}

// engineWarmHierarchies caps how many hierarchies' partitions an
// Engine retains; beyond it the least recently run hierarchy is
// dropped.
const engineWarmHierarchies = 4

// NewEngine returns an Engine that runs every call with the given
// options. The zero Options value is valid: DiscoverXFD with every
// extension off and no limits.
func NewEngine(opts Options) *Engine {
	return &Engine{opts: opts}
}

// Evaluate checks a single XML FD directly against a hierarchy,
// independent of discovery (see EvaluateContext). The hierarchy's
// reader lock is held for the duration, serializing against
// ApplyUpdate; the package-level EvaluateContext itself does not lock
// (discovery's FD verification calls it under Discover's reader lock,
// and read locks do not nest safely with a writer waiting).
func (e *Engine) Evaluate(ctx context.Context, h *relation.Hierarchy, class schema.Path, lhs []schema.RelPath, rhs schema.RelPath) (Evaluation, error) {
	e.evaluated()
	h.RLock()
	defer h.RUnlock()
	return EvaluateContext(ctx, h, class, lhs, rhs)
}

// Discover runs one discovery over the hierarchy: DiscoverXFD
// (Figure 9), or DiscoverFD (Figure 8) on each essential relation
// when Options.NoInterRelation is set. Cancelling ctx aborts with an
// error. Exhausting a budget instead returns the partial Result found
// so far with Stats.Truncated set: the wall-clock deadline (zero
// means none), Options.MaxLatticeLevel, or a truncated input
// hierarchy. warm false runs without the warm layer, neither seeding
// from nor publishing to it, for a hierarchy the caller built inside
// its own call and will never present again.
func (e *Engine) Discover(ctx context.Context, h *relation.Hierarchy, deadline time.Time, warm bool) (*Result, error) {
	e.runStarted()
	run := newRun(ctx, h, e.opts, deadline)
	// Hold the hierarchy's reader lock across seed, execute, AND
	// publish: publishing inside the critical section is what keeps a
	// finishing run from installing pre-update state over a warm entry
	// ApplyUpdate just patched.
	h.RLock()
	defer h.RUnlock()
	share := warm && !e.opts.NaivePartitions
	if share {
		if w := e.warmFor(h); w != nil {
			run.seed(w)
			e.warmSeededRun()
		}
	}
	res, err := run.execute()
	if share && err == nil {
		e.publish(run.warmEntry())
	}
	e.runDone(res, err)
	return res, err
}

// warmFor returns h's warm entry, or nil if there is none or it
// predates an update made other than through this engine's
// ApplyUpdate. Caller holds h's lock (either side), which keeps the
// entry's contents fixed; only the slice bookkeeping needs e.mu.
func (e *Engine) warmFor(h *relation.Hierarchy) *warmHierarchy {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, w := range e.warm {
		if w.h == h && w.batches == h.Batches() {
			return w
		}
	}
	return nil
}

// publish installs a finished run's entry as the warm entry for its
// hierarchy, replacing any previous entry (run-scoped invalidation)
// and evicting the oldest hierarchy beyond the cap. An entry with
// neither partitions nor outputs leaves the previous one in place.
func (e *Engine) publish(w *warmHierarchy) {
	if w.parts == nil && w.outs == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if i := e.warmIndex(w.h); i >= 0 {
		e.warm = slices.Delete(e.warm, i, i+1)
	}
	e.warm = append(e.warm, w)
	if len(e.warm) > engineWarmHierarchies {
		e.warm = slices.Delete(e.warm, 0, len(e.warm)-engineWarmHierarchies)
	}
}

// warmIndex returns the position of h's entry in e.warm, or -1.
// Caller holds e.mu.
func (e *Engine) warmIndex(h *relation.Hierarchy) int {
	return slices.IndexFunc(e.warm, func(w *warmHierarchy) bool { return w.h == h })
}

package core

import (
	"context"
	"reflect"
	"time"

	"discoverxfd/internal/partition"
	"discoverxfd/internal/relation"
	"discoverxfd/internal/schema"
)

// Engine is a reusable discovery engine: construct it once from an
// Options value and call Discover / Evaluate from as many goroutines
// as you like. Each call builds its own Run (governor, partition
// cache, stats — see run.go), so concurrent calls are fully isolated.
// An Engine holds nothing but its options and its counters: what
// repeated runs over one hierarchy reuse instead of recomputing (the
// E14 engine-reuse benchmark measures the effect) is the hierarchy's
// warm entry, kept on the hierarchy itself (relation.Derived), so it
// lives exactly as long as the caller holds the hierarchy and serves
// every engine whose options match the ones that built it.
//
// Sharing contract: partitions are immutable after construction (the
// partimmut analyzer enforces this), and a warm entry's maps and
// outputs are written only by ApplyUpdate under the hierarchy's
// writer lock, so runs holding the reader lock may share them. The
// entry is replaced at run scope: a finishing run stores its own
// (partitions already trimmed to the run's MaxPartitionBytes budget)
// in place of the one it found. Runs under Options.NaivePartitions
// never seed from nor publish to it: the naive engine is the
// differential baseline and must stay bit-for-bit cold. Neither do
// Discover calls with warm false, which is how a caller asks for a
// cold run over a hierarchy it holds, or runs over one it built
// inside its own call and will never present again.
type Engine struct {
	opts Options

	// met is the engine's cumulative run instrumentation (see
	// Metrics).
	met engineMetrics
}

// warmHierarchy is what the last run over a hierarchy left behind,
// by Relation.Index: each relation store's partition map, and each
// essential relation's output slot. A later run under the same key
// reads the maps in place (see partitionCache.seed) and replays the
// output of every subtree it proves unchanged (see Run.planReuse); so
// the entry also keeps the null tables its outputs were computed
// under. Nothing writes an entry but ApplyUpdate, under the
// hierarchy's writer lock: it patches the maps in place and empties
// the output slots of the relations it touched.
type warmHierarchy struct {
	// key is the options of the run that built the entry (see
	// warmKey); only runs under equal options read it.
	key Options

	parts []map[AttrSet]*partition.Partition // nil when no store retained a partition
	outs  []*relOutput                       // nil when the run was truncated

	// Null tables of the run that built outs (see Run.plan).
	anyNull        [][]bool
	nullsAtOrAbove []bool
}

// warmKey returns the options that decide what a run finds: all of
// them but Tracer and RelationHook, which only observe a run. A field
// added to Options joins the key unless it is cleared here too.
func warmKey(o Options) Options {
	o.Tracer = nil
	o.RelationHook = nil
	return o
}

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
// hierarchy. warm true seeds the run from h's warm entry when a run
// under equal options left it, and stores this run's entry in its
// place; warm false runs cold and leaves h's entry alone.
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
		if w := run.warmEntry(); w != nil {
			relation.SetDerived(h, w)
		}
	}
	e.runDone(res, err)
	return res, err
}

// warmFor returns h's warm entry if a run under options equal to the
// engine's left it, or nil. Caller holds h's lock (either side), which
// keeps the entry's contents fixed.
func (e *Engine) warmFor(h *relation.Hierarchy) *warmHierarchy {
	w, _ := relation.Derived(h).(*warmHierarchy)
	if w == nil || !reflect.DeepEqual(w.key, warmKey(e.opts)) {
		return nil
	}
	return w
}

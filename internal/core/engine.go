package core

import (
	"context"
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
// layer of immutable partitions, keyed by hierarchy, that repeated
// runs over the same document reuse instead of recomputing (the E14
// engine-reuse benchmark measures the effect).
//
// Sharing contract: partitions are immutable after construction (the
// partimmut analyzer enforces this), so handing the same *Partition to
// several runs is safe. The warm layer is invalidated at run scope —
// a finishing run replaces its hierarchy's entry wholesale with the
// partitions its own cache retained (already trimmed to the run's
// MaxPartitionBytes budget), and the oldest hierarchies are evicted
// beyond a small cap. Runs under Options.NaivePartitions never seed
// from nor publish to the warm layer: the naive engine is the
// differential baseline and must stay bit-for-bit cold. Neither do
// Discover calls with warm false: their hierarchy was built inside
// the caller's call, so no later run can hit its entry, which would
// only pin the hierarchy until evicted.
type Engine struct {
	opts Options

	mu   sync.Mutex
	warm []*warmHierarchy // guarded by mu

	// met is the engine's cumulative run instrumentation (see
	// Metrics).
	met engineMetrics
}

// warmHierarchy is the retained partition set of one hierarchy. The
// parts maps are built fresh by snapshot and never mutated afterwards,
// so concurrent seeding runs may read them without the Engine lock.
type warmHierarchy struct {
	h     *relation.Hierarchy
	parts map[*relation.Relation]map[AttrSet]*partition.Partition
	memo  *subtreeMemo
}

// subtreeMemo is the second half of the warm layer: the lattice
// outputs of every essential relation of the last successful,
// non-truncated run over a hierarchy. A later run skips the traversal
// of a whole subtree — no lattice nodes, no partition products, no
// target creation — when ApplyUpdate has touched nothing inside the
// subtree AND the subtree's two ancestor dependencies are intact: the
// null profiles its lattice consulted (nullInfo reaches the parent's
// null rows and every ancestor above) and the parent-row indices its
// outgoing target rows are expressed in. The memo therefore keeps the
// builder run's null tables for comparison, and a resize — the one
// update that renumbers rows — dirties the resized relation's whole
// descendant subtree (see Run.planReuse).
//
// outs and the null tables are immutable after publish. dirty is
// written only by ApplyUpdate under the hierarchy's writer lock and
// read by runs under the reader lock, so the two never race.
type subtreeMemo struct {
	outs  []*memoOutput // by Relation.Index; nil for non-essential or skipped
	dirty []bool        // by Relation.Index; set when an update touches the relation

	// Null tables of the run that built the memo (see Run.plan):
	// cached outputs assumed these, so reuse requires today's to match.
	anyNull        [][]bool
	nullsAtOrAbove []bool
}

// markDirty records that an update touched r. A resize additionally
// dirties r's entire descendant subtree: row deletion swap-moves rows
// and rewrites the children's ParentIdx without a RelChange of their
// own, which invalidates their cached outgoing targets (rows live in
// parent-row space) even though the descendants' columns are
// unchanged.
func (m *subtreeMemo) markDirty(r *relation.Relation, resized bool) {
	if r.Index >= len(m.dirty) {
		return
	}
	m.dirty[r.Index] = true
	if !resized {
		return
	}
	for _, c := range r.Children {
		m.markDirty(c, true)
	}
}

// memoOutput is one essential relation's contribution to a run: its
// intra/inter FDs, keys and approximate FDs (already converted to
// public form) plus the outgoing targets it handed to its parent.
// Outgoing targets are replayed as clones — the consuming parent
// appends to a target's satisfied list, which must not leak across
// runs — while the FD/key slices are append-only shared.
type memoOutput struct {
	fds    []FD
	keys   []Key
	approx []FD
	out    []*target
	tuples int
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
	// finishing run from installing pre-update partitions over a warm
	// entry ApplyUpdate just patched.
	h.RLock()
	defer h.RUnlock()
	share := warm && !e.opts.NaivePartitions
	if share {
		if parts, memo := e.warmFor(h); parts != nil {
			run.cache.seed(parts)
			run.memo = memo
			e.warmSeededRun()
		}
	}
	res, err := run.execute()
	if share && err == nil {
		e.publish(h, run.cache.snapshot(), run.memoSnapshot())
	}
	e.runDone(res, err)
	return res, err
}

// warmFor returns the retained partition maps and subtree memo for h,
// or nils. The returned maps and memo outputs are immutable (see
// warmHierarchy); only the slice bookkeeping needs the lock.
func (e *Engine) warmFor(h *relation.Hierarchy) (map[*relation.Relation]map[AttrSet]*partition.Partition, *subtreeMemo) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, w := range e.warm {
		if w.h == h {
			return w.parts, w.memo
		}
	}
	return nil, nil
}

// publish installs a finished run's partition snapshot and subtree
// memo as the warm entry for h, replacing any previous entry
// (run-scoped invalidation) and evicting the oldest hierarchy beyond
// the cap. memo may be nil (truncated runs publish partitions only).
func (e *Engine) publish(h *relation.Hierarchy, parts map[*relation.Relation]map[AttrSet]*partition.Partition, memo *subtreeMemo) {
	if len(parts) == 0 && memo == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	kept := e.warm[:0]
	for _, w := range e.warm {
		if w.h != h {
			kept = append(kept, w)
		}
	}
	e.warm = append(kept, &warmHierarchy{h: h, parts: parts, memo: memo})
	if len(e.warm) > engineWarmHierarchies {
		e.warm = append(e.warm[:0], e.warm[len(e.warm)-engineWarmHierarchies:]...)
	}
}

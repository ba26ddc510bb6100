package core

import (
	"sort"
	"time"

	"discoverxfd/internal/partition"
	"discoverxfd/internal/relation"
	"discoverxfd/internal/trace"
)

// ApplyUpdate applies a batch of document updates to h and patches the
// engine's warm partition layer in place of invalidating it: retained
// partitions of untouched relations (and of touched relations' clean
// columns) are kept, dirty single-column partitions are rebuilt from
// the column's codes by the same builder cold runs use
// (Relation.ColumnPartition), and only multi-column sets intersecting
// the dirty columns are dropped — those the next run recomputes by
// products of the rebuilt columns. The next Discover over h therefore
// starts warm almost everywhere, which is what the E-update benchmark
// measures.
//
// ApplyUpdate serializes against running discoveries: it takes h's
// writer lock while Discover holds the reader lock across seed,
// execute, and publish, so a run never observes half-applied updates
// and never publishes pre-update partitions over a patched warm entry.
//
// On error the hierarchy retains the updates applied before the
// failing op; the warm layer is dropped for h so no stale partitions
// can be served.
func (e *Engine) ApplyUpdate(h *relation.Hierarchy, ops []relation.Update) (*relation.Changeset, error) {
	start := time.Now()
	h.Lock()
	cs, err := h.Apply(ops)
	var pr []patchReport
	if err == nil {
		pr = e.patchWarm(h, cs)
	} else {
		e.dropWarm(h)
	}
	h.Unlock()
	e.updateDone(cs, err, pr)
	e.traceUpdate(start, cs, err, pr)
	if err != nil {
		return nil, err
	}
	return cs, nil
}

// patchReport summarizes the warm-layer patch of one relation.
type patchReport struct {
	rel     *relation.Relation
	rows    int // touched rows
	attrs   int // dirty columns
	kept    int // partitions shared untouched
	patched int // single-column partitions rebuilt from the column's codes
	dropped int // stale multi-column sets discarded
}

// patchWarm rewrites h's warm entry under the Changeset. It builds
// fresh maps for touched relations (warm maps are shared with seeding
// runs and never mutated) and shares the rest. Caller holds h's writer
// lock, so no run is concurrently seeding from or publishing to the
// entry.
func (e *Engine) patchWarm(h *relation.Hierarchy, cs *relation.Changeset) []patchReport {
	e.mu.Lock()
	defer e.mu.Unlock()
	var w *warmHierarchy
	for _, ww := range e.warm {
		if ww.h == h {
			w = ww
			break
		}
	}
	if w == nil {
		return nil
	}
	// Dirty the subtree memo before rewriting partitions: every touched
	// relation loses its cached lattice outputs, and a resized relation
	// additionally invalidates its children's outgoing targets (see
	// subtreeMemo.markDirty). The memo itself survives — the next run
	// still replays every clean cone.
	if w.memo != nil {
		for idx, rc := range cs.Rels {
			if rc != nil && idx < len(h.Relations) {
				w.memo.markDirty(h.Relations[idx], rc.Resized)
			}
		}
	}
	var reports []patchReport
	parts := make(map[*relation.Relation]map[AttrSet]*partition.Partition, len(w.parts))
	for rel, m := range w.parts {
		var rc *relation.RelChange
		if rel.Index < len(cs.Rels) {
			rc = cs.Rels[rel.Index]
		}
		if rc == nil {
			parts[rel] = m // untouched relation: share wholesale
			continue
		}
		rep := patchReport{rel: rel, rows: rc.Tuples}
		for ai := range rel.Attrs {
			if rc.DirtyAttr(ai) {
				rep.attrs++
			}
		}
		nm := make(map[AttrSet]*partition.Partition, len(m))
		for a, p := range m {
			switch {
			case a == 0:
				// Π_∅ depends only on the row count: recompute on
				// resize, keep otherwise.
				if rc.Resized {
					nm[a] = partition.Single(rel.NRows())
					rep.patched++
				} else {
					nm[a] = p
					rep.kept++
				}
			case a.Size() == 1:
				if i := a.MaxBit(); rc.DirtyAttr(i) {
					nm[a] = rel.ColumnPartition(i)
					rep.patched++
				} else {
					nm[a] = p
					rep.kept++
				}
			default:
				dirty := rc.Resized
				for _, i := range a.Attrs() {
					if dirty {
						break
					}
					dirty = rc.DirtyAttr(i)
				}
				if dirty {
					rep.dropped++ // next run rebuilds by product
				} else {
					nm[a] = p
					rep.kept++
				}
			}
		}
		if len(nm) > 0 {
			parts[rel] = nm
		}
		reports = append(reports, rep)
	}
	w.parts = parts
	// Reports feed trace events and counters: order them by relation
	// for deterministic emission.
	sort.Slice(reports, func(i, j int) bool { return reports[i].rel.Index < reports[j].rel.Index })
	return reports
}

// dropWarm removes h's warm entry (failed update batches leave the
// hierarchy partially updated, so retained partitions may be stale).
func (e *Engine) dropWarm(h *relation.Hierarchy) {
	e.mu.Lock()
	defer e.mu.Unlock()
	kept := e.warm[:0]
	for _, w := range e.warm {
		if w.h != h {
			kept = append(kept, w)
		}
	}
	for i := len(kept); i < len(e.warm); i++ {
		e.warm[i] = nil
	}
	e.warm = kept
}

// traceUpdate emits the update span: one update_apply event, preceded
// by a partition_patch event per warm relation rewritten.
func (e *Engine) traceUpdate(start time.Time, cs *relation.Changeset, err error, pr []patchReport) {
	if e.opts.Tracer == nil {
		return
	}
	for _, rep := range pr {
		trace.Emit(e.opts.Tracer, &trace.Event{
			Kind:     trace.KindPartitionPatch,
			Relation: string(rep.rel.Pivot),
			Tuples:   rep.rows,
			Attrs:    rep.attrs,
			Kept:     rep.kept,
			Patched:  rep.patched,
			Dropped:  rep.dropped,
		})
	}
	ev := &trace.Event{Kind: trace.KindUpdateApply, DurationMS: msSince(start)}
	if err != nil {
		ev.Err = err.Error()
	} else {
		ev.Ops = cs.Ops()
		for _, rc := range cs.Rels {
			if rc != nil {
				ev.Relations++
				ev.Tuples += rc.Tuples
			}
		}
	}
	trace.Emit(e.opts.Tracer, ev)
}

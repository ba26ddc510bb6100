package core

import (
	"slices"
	"time"

	"discoverxfd/internal/partition"
	"discoverxfd/internal/relation"
	"discoverxfd/internal/trace"
)

// ApplyUpdate applies a batch of document updates to h and patches the
// engine's warm layer in place of invalidating it: retained partitions
// of untouched relations (and of touched relations' clean columns) are
// kept, dirty single-column partitions are rebuilt from the column's
// codes by the same builder cold runs use (Relation.ColumnPartition),
// and only multi-column sets intersecting the dirty columns are
// dropped — those the next run recomputes by products of the rebuilt
// columns. Each touched relation loses its output slot, so the next
// Discover over h traverses it again and replays every subtree the
// batch left alone, which is what the E-update benchmark measures.
//
// ApplyUpdate serializes against running discoveries: it takes h's
// writer lock while Discover holds the reader lock across seed,
// execute, and publish, so a run never observes half-applied updates
// and never publishes pre-update state over a patched warm entry.
//
// On error the hierarchy retains the updates applied before the
// failing op; the warm entry for h is dropped so no stale state can
// be served.
func (e *Engine) ApplyUpdate(h *relation.Hierarchy, ops []relation.Update) (*relation.Changeset, error) {
	start := time.Now()
	h.Lock()
	cs, err := h.Apply(ops)
	pr := e.patchWarm(h, cs)
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

// patchWarm brings h's warm entry up to date with the Apply batch that
// produced cs, in place, and reports the patch per relation in
// relation order. It patches only an entry exactly one batch behind;
// any other entry, and every entry after a failed batch (cs nil), it
// drops. Caller holds h's writer lock, so no run is reading the entry.
func (e *Engine) patchWarm(h *relation.Hierarchy, cs *relation.Changeset) []patchReport {
	e.mu.Lock()
	defer e.mu.Unlock()
	i := e.warmIndex(h)
	if i < 0 {
		return nil
	}
	w := e.warm[i]
	if cs == nil || w.batches+1 != h.Batches() {
		e.warm = slices.Delete(e.warm, i, i+1)
		return nil
	}
	w.batches = h.Batches()
	var reports []patchReport
	for idx, rc := range cs.Rels {
		if rc == nil {
			continue
		}
		w.dropOutputs(rc.Rel, rc.Resized)
		if w.parts == nil || w.parts[idx] == nil {
			continue
		}
		rep := patchReport{rel: rc.Rel, rows: rc.Tuples}
		for ai := range rc.Rel.Attrs {
			if rc.DirtyAttr(ai) {
				rep.attrs++
			}
		}
		m := w.parts[idx]
		for a := range m {
			if a == 0 && rc.Resized {
				// Π_∅ depends only on the row count.
				m[a] = partition.Single(rc.Rel.NRows())
				rep.patched++
			} else if a.Size() == 1 && rc.DirtyAttr(a.MaxBit()) {
				m[a] = rc.Rel.ColumnPartition(a.MaxBit())
				rep.patched++
			} else if a.Size() > 1 && stale(rc, a) {
				delete(m, a) // the next run rebuilds it by product
				rep.dropped++
			} else {
				rep.kept++
			}
		}
		if len(m) == 0 {
			w.parts[idx] = nil
		}
		reports = append(reports, rep)
	}
	return reports
}

// stale reports whether the batch changed a column of a, or the rows.
func stale(rc *relation.RelChange, a AttrSet) bool {
	if rc.Resized {
		return true
	}
	for _, i := range a.Attrs() {
		if rc.DirtyAttr(i) {
			return true
		}
	}
	return false
}

// dropOutputs empties r's output slot. A resize empties the slots of
// r's whole descendant subtree too: row deletion swap-moves rows and
// rewrites the children's ParentIdx without a RelChange of their own,
// which invalidates their outgoing targets (rows live in parent-row
// space) even though the descendants' columns are unchanged.
func (w *warmHierarchy) dropOutputs(r *relation.Relation, resized bool) {
	if w.outs == nil {
		return
	}
	w.outs[r.Index] = nil
	if resized {
		for _, c := range r.Children {
			w.dropOutputs(c, true)
		}
	}
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
	ev := &trace.Event{Kind: trace.KindUpdateApply, DurationMS: ms(time.Since(start))}
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

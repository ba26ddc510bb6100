package relation

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"discoverxfd/internal/datatree"
	"discoverxfd/internal/schema"
)

// This file implements in-place document updates on a built
// hierarchy: tuple value changes, inserts, and deletes addressed by
// tuple class and pivot node key. An update mutates the retained data
// tree and the relation columns consistently, and reports exactly
// which columns and rows changed (the Changeset), which is what lets
// the warm entry discovery keeps on the hierarchy (see Derived) keep
// the striped partitions of clean columns and rebuild only the dirty
// ones (see the engine's ApplyUpdate).
//
// The invariants the update path maintains:
//
//   - Dense interning stays append-only: new leaf values and new
//     subtree codes extend the retained interner/remap tables, so
//     ColBound only grows, untouched codes keep their meaning, and
//     every non-null code stays in [1, ColBound) — a rebuilt column
//     partition takes FromDense's counting path, as in a cold build.
//   - Null codes stay row-unique: a tuple moved by a swap-delete has
//     its null codes renumbered to its new row, preserving the
//     nullCode(row) convention the partitions' strong-satisfaction
//     semantics depend on.
//   - Deletes swap the last tuple into the vacated slot and truncate
//     (no tombstones), so the relation after an update is, up to a
//     row permutation, exactly what a cold rebuild of the mutated
//     tree produces — and discovery output is row-permutation
//     invariant, which is what the differential tests pin.

// ErrNotUpdatable is returned by Apply on hierarchies that did not
// retain encoding state: streamed builds (BuildStream discards the
// tree) and hand-assembled test hierarchies.
var ErrNotUpdatable = errors.New("relation: hierarchy is not updatable (streamed or hand-assembled)")

// UpdateOp selects what an Update does.
type UpdateOp int

const (
	// OpSet sets (or creates) the value of a leaf attribute of an
	// existing tuple.
	OpSet UpdateOp = iota
	// OpInsert inserts a new tuple of an essential class under a
	// parent-class tuple, with leaf values.
	OpInsert
	// OpDelete deletes a tuple and, transitively, every tuple of a
	// descendant class beneath it.
	OpDelete
)

func (op UpdateOp) String() string {
	switch op {
	case OpSet:
		return "set"
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	default:
		return fmt.Sprintf("UpdateOp(%d)", int(op))
	}
}

// Update is one document mutation, addressed by tuple class (a pivot
// path) and pivot node key.
type Update struct {
	Op UpdateOp
	// Class is the pivot path of the tuple class the update targets.
	Class schema.Path
	// Key is the pivot node key of the target tuple (OpSet, OpDelete).
	Key int
	// Attr is the leaf attribute to set, relative to the pivot
	// (OpSet), e.g. "./name" or "." for a simple set element's own
	// value.
	Attr schema.RelPath
	// Value is the new leaf value (OpSet).
	Value string
	// Parent is the pivot node key of the parent-class tuple an
	// insert goes under (OpInsert). Zero means "the unique parent
	// tuple" and is valid only when the parent class has exactly one
	// tuple (always true for top-level classes, whose parent is the
	// document root).
	Parent int
	// Values holds the new tuple's leaf values by attribute relative
	// path (OpInsert). Attributes not listed are missing (null).
	Values map[schema.RelPath]string
}

// RelChange records what an Apply batch changed in one relation.
type RelChange struct {
	Rel *Relation
	// Resized reports that tuples were inserted or deleted: row
	// identity changed, so every partition of the relation is stale
	// and DirtyAttr reports every column.
	Resized bool
	// Tuples counts the distinct rows of the final relation whose codes
	// may differ from the pre-update relation (update trace events
	// report it). Rows at or above the final row count are not counted.
	Tuples int

	dirty uint64 // bitmask over attr indices with changed codes
	wide  bool   // >64 attrs: bitmask insufficient, treat all dirty
	rows  map[int32]struct{}
}

// DirtyAttr reports whether column ai's codes may have changed.
func (rc *RelChange) DirtyAttr(ai int) bool {
	if rc == nil {
		return false
	}
	return rc.Resized || rc.wide || ai >= 64 || rc.dirty&(1<<uint(ai)) != 0
}

// Changeset reports what one Apply batch changed.
type Changeset struct {
	// Keys holds, per update in the batch, the pivot node key of the
	// affected tuple — for inserts, the newly assigned key, which
	// later batches use to address the new tuple.
	Keys []int
	// Rels holds one entry per touched relation, indexed by
	// Relation.Index; untouched relations are nil.
	Rels []*RelChange
}

// Ops returns the number of applied updates.
func (cs *Changeset) Ops() int { return len(cs.Keys) }

// Updatable reports whether the hierarchy retained the encoding state
// in-place updates need (true for Build/BuildContext hierarchies,
// false for streamed or hand-assembled ones).
func (h *Hierarchy) Updatable() bool { return h.upd != nil && !h.Truncated }

// ensureRowIndex builds the pivot-key→row lookups on first use.
func (ps *patchState) ensureRowIndex(h *Hierarchy) {
	if ps.rowByKey != nil {
		return
	}
	ps.rowByKey = make([]map[int]int32, len(h.Relations))
	for _, r := range h.Relations {
		m := make(map[int]int32, r.NRows())
		for t, k := range r.Keys {
			m[k] = int32(t)
		}
		ps.rowByKey[r.Index] = m
	}
}

// Apply applies a batch of updates to the hierarchy, mutating the
// retained data tree and the relation columns in place, and returns
// the Changeset describing exactly which columns and rows changed.
// Updates are applied in order; a validation error on any update
// aborts the batch. Earlier updates remain applied (and a rejected
// update may leave empty containers it grafted on its path), but the
// hierarchy is always left consistent with the mutated document —
// callers wanting all-or-nothing semantics should validate scripts
// first or rebuild on error.
//
// Updates are validated against the hierarchy's schema the same way
// cold builds validate documents (datatree.Conform): values written
// to Int/Float-typed leaves must parse, and grafts may not put a
// second alternative under a Choice element. Without this the update
// path could produce documents a rebuild rejects.
//
// Apply first empties the derived-state slot (see Derived); a caller
// that brings its state up to date stores it again.
//
// Apply does not lock: callers serialize updates against running
// discoveries via Lock/RLock (the engine's ApplyUpdate does).
func (h *Hierarchy) Apply(ops []Update) (*Changeset, error) {
	SetDerived(h, nil)
	if h.upd == nil {
		return nil, ErrNotUpdatable
	}
	if h.Truncated {
		return nil, fmt.Errorf("relation: truncated hierarchy (%s) is not updatable", h.TruncatedReason)
	}
	h.upd.ensureRowIndex(h)
	app := &applier{
		h:        h,
		ps:       h.upd,
		cs:       &Changeset{Rels: make([]*RelChange, len(h.Relations))},
		affected: make([]map[int]struct{}, len(h.Relations)),
	}
	var applyErr error
	for i := range ops {
		key, err := app.apply(&ops[i])
		if err != nil {
			applyErr = fmt.Errorf("relation: update %d (%s %s): %w", i, ops[i].Op, ops[i].Class, err)
			break
		}
		app.cs.Keys = append(app.cs.Keys, key)
	}
	// Recompute even after a rejected update: earlier updates in the
	// batch remain applied (and a rejected update may have grafted
	// empty containers on its path), and the hierarchy must stay
	// consistent with the mutated document — a cold rebuild of the
	// tree and the patched columns must describe the same instance.
	app.recompute()
	if applyErr != nil {
		return nil, applyErr
	}
	for _, rc := range app.cs.Rels {
		if rc == nil {
			continue
		}
		n := int32(rc.Rel.NRows())
		for t := range rc.rows {
			if t < n {
				rc.Tuples++
			}
		}
	}
	return app.cs, nil
}

// applier is the working state of one Apply batch.
type applier struct {
	h  *Hierarchy
	ps *patchState
	cs *Changeset
	// affected collects, per relation, the pivot keys of tuples whose
	// Complex and SetValue columns must be re-encoded after all
	// structural changes have landed (keys, not rows: swap-deletes
	// move rows mid-batch, keys are stable).
	affected []map[int]struct{}
}

// change returns (creating on first touch) the relation's RelChange.
func (app *applier) change(r *Relation) *RelChange {
	rc := app.cs.Rels[r.Index]
	if rc == nil {
		rc = &RelChange{Rel: r, wide: r.NAttrs() > 64, rows: make(map[int32]struct{})}
		app.cs.Rels[r.Index] = rc
	}
	return rc
}

// markDirty records a changed code in column ai at row t.
func (app *applier) markDirty(r *Relation, ai int, t int32) {
	rc := app.change(r)
	if ai < 64 {
		rc.dirty |= 1 << uint(ai)
	}
	rc.rows[t] = struct{}{}
}

// markAffected schedules the tuple's Complex/SetValue columns for
// re-encoding in the batch's final pass.
func (app *applier) markAffected(r *Relation, key int) {
	m := app.affected[r.Index]
	if m == nil {
		m = make(map[int]struct{})
		app.affected[r.Index] = m
	}
	m[key] = struct{}{}
}

// markAncestors walks the parent chain of (r, row) and schedules each
// ancestor tuple for re-encoding: a change below is a change of every
// ancestor's subtree, so their Complex and SetValue codes may shift.
func (app *applier) markAncestors(r *Relation, row int32) {
	for r.Parent != nil {
		pi := r.ParentIdx[row]
		if pi < 0 {
			return
		}
		r, row = r.Parent, pi
		app.markAffected(r, r.Keys[row])
	}
}

// rowOf resolves a pivot key to its current row.
func (app *applier) rowOf(r *Relation, key int) (int32, error) {
	t, ok := app.ps.rowByKey[r.Index][key]
	if !ok {
		return 0, fmt.Errorf("no tuple with key %d", key)
	}
	return t, nil
}

func (app *applier) apply(op *Update) (int, error) {
	rel := app.h.byPivot[op.Class]
	if rel == nil {
		return 0, fmt.Errorf("unknown tuple class")
	}
	switch op.Op {
	case OpSet:
		return app.applySet(rel, op)
	case OpInsert:
		return app.applyInsert(rel, op)
	case OpDelete:
		return app.applyDelete(rel, op)
	default:
		return 0, fmt.Errorf("unknown op %v", op.Op)
	}
}

// leafKind resolves the declared simple kind of an attribute's
// element. Hierarchies without a schema (or with unresolvable paths)
// validate as strings, i.e. not at all.
func (app *applier) leafKind(a *Attr) schema.Kind {
	if app.h.Schema == nil {
		return schema.String
	}
	el, err := app.h.Schema.Resolve(a.Path)
	if err != nil || el.Payload == nil {
		return schema.String
	}
	return el.Payload.Kind
}

// validateLeafValue mirrors datatree.Conform's simple-type checks:
// values written into Int/Float-typed leaves must parse.
func validateLeafValue(kind schema.Kind, attr schema.RelPath, v string) error {
	switch kind {
	case schema.Int:
		if _, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64); err != nil {
			return fmt.Errorf("attribute %s: value %q is not an int", attr, v)
		}
	case schema.Float:
		if _, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err != nil {
			return fmt.Errorf("attribute %s: value %q is not a float", attr, v)
		}
	}
	return nil
}

// graft adds a child with the given label under cur (whose absolute
// path is curPath), rejecting grafts that would put a second
// alternative under a Choice element — cold builds of such a document
// fail schema conformance, and the update path must never produce a
// document a rebuild rejects. Grafts self-invalidate the encoder
// cache of the enclosing subtree chain.
func (app *applier) graft(cur *datatree.Node, curPath schema.Path, label string) (*datatree.Node, error) {
	if s := app.h.Schema; s != nil {
		if el, err := s.Resolve(curPath); err == nil && el.Payload != nil && el.Payload.Kind == schema.Choice {
			for _, c := range cur.Children {
				if c.Label != label {
					return nil, fmt.Errorf("choice element %s has alternative %q present; cannot add %q",
						curPath, c.Label, label)
				}
			}
		}
	}
	n := app.ps.tree.Graft(cur, label)
	app.ps.enc.Invalidate(n)
	return n, nil
}

// ensurePath walks the non-final label steps of a relative path from
// the pivot (whose absolute path is pivotPath), grafting missing
// intermediate nodes, and returns the node the final step hangs off,
// that node's absolute path, and the final label.
func (app *applier) ensurePath(pivot *datatree.Node, pivotPath schema.Path, steps []string) (*datatree.Node, schema.Path, string, error) {
	cur, curPath := pivot, pivotPath
	for _, step := range steps[:len(steps)-1] {
		next := cur.Child(step)
		if next == nil {
			var err error
			if next, err = app.graft(cur, curPath, step); err != nil {
				return nil, "", "", err
			}
		}
		cur, curPath = next, curPath.Child(step)
	}
	return cur, curPath, steps[len(steps)-1], nil
}

// graftAttr grafts the full relative path of attribute ai from the
// pivot and returns the final node (created valueless; callers set the
// value).
func (app *applier) graftAttr(r *Relation, ai int, pivot *datatree.Node) (*datatree.Node, error) {
	parent, parentPath, last, err := app.ensurePath(pivot, r.Pivot, r.attrSteps[ai])
	if err != nil {
		return nil, err
	}
	return app.graft(parent, parentPath, last)
}

func (app *applier) applySet(rel *Relation, op *Update) (int, error) {
	t, err := app.rowOf(rel, op.Key)
	if err != nil {
		return 0, err
	}
	ai := rel.AttrIndex(op.Attr)
	if ai < 0 {
		return 0, fmt.Errorf("no attribute %s", op.Attr)
	}
	if rel.Attrs[ai].Kind != Leaf {
		return 0, fmt.Errorf("attribute %s is %s, not a leaf (set leaf values; restructure via insert/delete)", op.Attr, rel.Attrs[ai].Kind)
	}
	if err := validateLeafValue(app.leafKind(&rel.Attrs[ai]), op.Attr, op.Value); err != nil {
		return 0, err
	}
	pivot := rel.nodes[t]
	node := follow(pivot, rel.attrSteps[ai])
	if node == nil {
		var err error
		if node, err = app.graftAttr(rel, ai, pivot); err != nil {
			// Intermediates may have been grafted before the Choice
			// rejection; schedule re-encoding so the columns stay
			// consistent with the mutated document.
			app.markAffected(rel, op.Key)
			app.markAncestors(rel, t)
			return 0, err
		}
	}
	node.Value = op.Value
	node.HasValue = true
	app.ps.enc.Invalidate(node)
	newCode := app.ps.cell(rel, ai, pivot, int(t))
	if rel.Cols[ai][t] != newCode {
		rel.Cols[ai][t] = newCode
		app.markDirty(rel, ai, t)
	}
	app.markAffected(rel, op.Key)
	app.markAncestors(rel, t)
	return op.Key, nil
}

func (app *applier) applyInsert(rel *Relation, op *Update) (int, error) {
	if !rel.Essential {
		return 0, fmt.Errorf("cannot insert into the root class")
	}
	parent := rel.Parent
	var pi int32
	if op.Parent == 0 {
		if parent.NRows() != 1 {
			return 0, fmt.Errorf("parent class %s has %d tuples; a parent key is required", parent.Pivot, parent.NRows())
		}
		pi = 0
	} else {
		var err error
		if pi, err = app.rowOf(parent, op.Parent); err != nil {
			return 0, fmt.Errorf("parent class %s: %w", parent.Pivot, err)
		}
	}
	// Validate the leaf values before touching anything.
	attrs := make([]int, 0, len(op.Values))
	for rp := range op.Values {
		ai := rel.AttrIndex(rp)
		if ai < 0 {
			return 0, fmt.Errorf("no attribute %s", rp)
		}
		if rel.Attrs[ai].Kind != Leaf {
			return 0, fmt.Errorf("attribute %s is %s, not a leaf", rp, rel.Attrs[ai].Kind)
		}
		if err := validateLeafValue(app.leafKind(&rel.Attrs[ai]), rp, op.Values[rp]); err != nil {
			return 0, err
		}
		attrs = append(attrs, ai)
	}
	sort.Slice(attrs, func(i, j int) bool { return rel.Attrs[attrs[i]].Rel < rel.Attrs[attrs[j]].Rel })

	// Graft the pivot node (creating intermediate containers on the
	// parent-to-pivot path as needed) and its leaf descendants. A
	// Choice rejection on the container path may leave grafted
	// intermediates behind; mark the parent tuple so re-encoding keeps
	// the columns consistent with the mutated document.
	var pivot *datatree.Node
	container, containerPath, label, err := app.ensurePath(parent.nodes[pi], parent.Pivot, rel.steps)
	if err == nil {
		if pivot, err = app.graft(container, containerPath, label); err == nil {
			for _, ai := range attrs {
				v := op.Values[rel.Attrs[ai].Rel]
				if len(rel.attrSteps[ai]) == 0 { // "." — the pivot's own value
					pivot.Value = v
					pivot.HasValue = true
					continue
				}
				var leaf *datatree.Node
				if leaf, err = app.graftAttr(rel, ai, pivot); err != nil {
					// Two Values under different alternatives of a
					// Choice: undo the half-built pivot so the tree
					// holds no tuple the relation never appended.
					app.ps.enc.Invalidate(pivot)
					app.ps.tree.Prune(pivot)
					break
				}
				leaf.Value = v
				leaf.HasValue = true
			}
		}
	}
	if err != nil {
		app.markAffected(parent, parent.Keys[pi])
		app.markAncestors(parent, pi)
		return 0, err
	}

	// Append the tuple row, encoded as a cold build would encode it.
	// Later updates in the batch may still change the new subtree; the
	// batch-final recompute pass re-encodes it then.
	t := rel.NRows()
	for ai := range rel.Attrs {
		rel.Cols[ai] = append(rel.Cols[ai], app.ps.cell(rel, ai, pivot, t))
	}
	rel.nodes = append(rel.nodes, pivot)
	rel.Keys = append(rel.Keys, pivot.Key)
	rel.ParentIdx = append(rel.ParentIdx, pi)
	app.ps.rowByKey[rel.Index][pivot.Key] = int32(t)

	rc := app.change(rel)
	rc.Resized = true
	rc.rows[int32(t)] = struct{}{}
	app.markAffected(rel, pivot.Key)
	app.markAncestors(rel, int32(t))
	return pivot.Key, nil
}

func (app *applier) applyDelete(rel *Relation, op *Update) (int, error) {
	if !rel.Essential {
		return 0, fmt.Errorf("cannot delete the root class")
	}
	t, err := app.rowOf(rel, op.Key)
	if err != nil {
		return 0, err
	}
	// Ancestors first: the parent chain is unreadable once rows move.
	app.markAncestors(rel, t)

	// Detach the subtree from the document.
	node := rel.nodes[t]
	app.ps.enc.Invalidate(node)
	app.ps.tree.Prune(node)

	// Cascade: collect doomed rows per descendant class, top-down,
	// then delete bottom-up so parent-index fixups always see live
	// child rows.
	type doomed struct {
		r    *Relation
		rows []int32
	}
	frontier := []doomed{{r: rel, rows: []int32{t}}}
	for i := 0; i < len(frontier); i++ {
		d := frontier[i]
		in := make(map[int32]struct{}, len(d.rows))
		for _, row := range d.rows {
			in[row] = struct{}{}
		}
		for _, c := range d.r.Children {
			var rows []int32
			for ct, pi := range c.ParentIdx {
				if _, ok := in[pi]; ok {
					rows = append(rows, int32(ct))
				}
			}
			if len(rows) > 0 {
				frontier = append(frontier, doomed{r: c, rows: rows})
			}
		}
	}
	for i := len(frontier) - 1; i >= 0; i-- {
		app.deleteRows(frontier[i].r, frontier[i].rows)
	}
	return op.Key, nil
}

// deleteRows removes the given rows from the relation by swapping the
// last row into each vacated slot and truncating — no tombstones, so
// the result is a row permutation of a cold rebuild. Moved rows have
// their null codes renumbered to keep nullCode(row) row-unique, and
// child relations' parent indices are redirected to the moved slot.
func (app *applier) deleteRows(r *Relation, rows []int32) {
	rc := app.change(r)
	rc.Resized = true
	byKey := app.ps.rowByKey[r.Index]
	sort.Slice(rows, func(i, j int) bool { return rows[i] > rows[j] })
	for _, d := range rows {
		last := int32(r.NRows() - 1)
		delete(byKey, r.Keys[d])
		if d != last {
			for ai := range r.Cols {
				v := r.Cols[ai][last]
				if v < 0 {
					v = nullCode(int(d))
				}
				r.Cols[ai][d] = v
			}
			r.Keys[d] = r.Keys[last]
			r.nodes[d] = r.nodes[last]
			r.ParentIdx[d] = r.ParentIdx[last]
			byKey[r.Keys[d]] = d
			for _, c := range r.Children {
				for i, pi := range c.ParentIdx {
					if pi == last {
						c.ParentIdx[i] = d
					}
				}
			}
			rc.rows[d] = struct{}{}
		}
		for ai := range r.Cols {
			r.Cols[ai] = r.Cols[ai][:last]
		}
		r.Keys = r.Keys[:last]
		r.nodes = r.nodes[:last]
		r.ParentIdx = r.ParentIdx[:last]
	}
}

// recompute is the batch-final pass: for every tuple marked affected,
// re-encode its Complex columns (subtree codes) and SetValue columns
// (multiset/list codes of the child collections, in document order),
// recording dirt only for codes that actually changed — an update
// deep in a subtree usually leaves most enclosing codes intact, and
// clean columns keep their warm partitions.
func (app *applier) recompute() {
	h, ps := app.h, app.ps
	for _, r := range h.Relations {
		m := app.affected[r.Index]
		if len(m) == 0 {
			continue
		}
		keys := make([]int, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		rows := make([]int32, 0, len(keys))
		for _, k := range keys {
			if t, ok := ps.rowByKey[r.Index][k]; ok {
				rows = append(rows, t) // deleted tuples drop out here
			}
		}
		for ai, a := range r.Attrs {
			if a.Kind == Leaf {
				continue // leaf codes were set by the updates themselves
			}
			for _, t := range rows {
				if code := ps.cell(r, ai, r.nodes[t], int(t)); r.Cols[ai][t] != code {
					r.Cols[ai][t] = code
					app.markDirty(r, ai, t)
				}
			}
		}
	}
}

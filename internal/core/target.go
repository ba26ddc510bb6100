package core

import (
	"slices"

	"discoverxfd/internal/partition"
	"discoverxfd/internal/relation"
	"discoverxfd/internal/schema"
	"discoverxfd/internal/trace"
)

// The target lifecycle helpers pair each Stats counter bump with its
// trace event, so every TargetsCreated/Propagated/Dropped increment
// in this package is observable in a traced run. The nil check keeps
// the untraced path at one pointer compare per lifecycle step.

// targetCreated records a new target with its row count, which the
// trace event carries in its pairs field.
func targetCreated(rel *relation.Relation, opts *Options, st *Stats, rows int) {
	st.TargetsCreated++
	if opts.Tracer != nil {
		trace.Emit(opts.Tracer, &trace.Event{Kind: trace.KindTarget,
			Relation: string(rel.Pivot), Action: "create", Pairs: rows})
	}
}

// targetPropagated records a target lifted one relation level up.
func targetPropagated(rel *relation.Relation, opts *Options, st *Stats, rows int) {
	st.TargetsPropagated++
	if opts.Tracer != nil {
		trace.Emit(opts.Tracer, &trace.Event{Kind: trace.KindTarget,
			Relation: string(rel.Pivot), Action: "propagate", Pairs: rows})
	}
}

// targetDropped records a target killed or withheld, naming the cause.
func targetDropped(rel *relation.Relation, opts *Options, st *Stats, detail string) {
	st.TargetsDropped++
	if opts.Tracer != nil {
		trace.Emit(opts.Tracer, &trace.Event{Kind: trace.KindTarget,
			Relation: string(rel.Pivot), Action: "drop", Detail: detail})
	}
}

// targetRow is one origin tuple as a target sees it at the relation the
// target is checked at. The tuple lies in group: a group of the
// origin's Π_LHS (Π_X for a key target), refined by every attribute set
// the target absorbed on its way up. It reaches that relation's row
// parent. It carries bucket, its class on the right-hand side: its
// Π_{LHS∪A} group for an FD target, the tuple itself for a key target.
// Two tuples of one group in different buckets violate the candidate
// unless an attribute set separates their rows.
type targetRow struct{ group, parent, bucket int32 }

// lhsPart records attributes absorbed into a target's LHS at one
// relation level.
type lhsPart struct {
	rel   *relation.Relation
	attrs AttrSet
}

// target is a partition target (the paper's Figure 10 struct): a
// candidate partial FD — or, when keyOnly is set, a candidate partial
// Key — originating at relation origin, together with the rows that
// ancestor attribute sets must separate for it to hold. Rows index the
// relation the target is currently checked at and are re-expressed on
// parent rows as the target moves up (convert). A target holds at most
// one row per origin tuple, however large its groups.
//
// The paper folds FDTarget and KeyTarget into one structure; this
// implementation splits them into two target kinds so that minimality
// bookkeeping (superset suppression per kind) stays correct: an
// attribute set that completes the FD must not suppress a larger set
// that would complete the Key. FDs whose LHS turns out to be a
// superkey are removed by a final filter instead (Definition 11
// excludes them from indicating redundancy).
type target struct {
	origin *relation.Relation // relation of the tuple class C
	lhs0   AttrSet            // LHS attributes at the origin relation
	rhs    int                // RHS attribute index (regular targets)
	parts  []lhsPart          // attributes absorbed at intermediate levels

	// keyOnly marks candidate partial Keys: lhs0 is a key within
	// every parent but not globally; rhs is meaningless.
	keyOnly bool

	// rows are sorted by (group, parent, bucket) without duplicates;
	// groups are numbered from 0 in order, and each spans two buckets.
	rows []targetRow

	// satisfied lists minimal attribute sets of the current relation
	// that already completed the target, for superset suppression.
	satisfied []AttrSet
}

// clone returns a copy safe to offer to a fresh run: the satisfied
// list is reset (the consuming relation appends to it per level), and
// the immutable rows and parts are shared. The warm layer hands out
// clones of cached outgoing targets so that one run's minimality
// bookkeeping never leaks into the next.
func (t *target) clone() *target {
	c := *t
	c.satisfied = nil
	return &c
}

// nullInfo tells target construction whether two buckets meeting at a
// parent row can still be told apart vacuously, by a missing value:
// the parent relation must have one in that row, or missing values
// must exist strictly above it.
//
// The paper's updatePT returns NULL as soon as two violating tuples
// share an ancestor, which silently assumes ancestor paths are never
// missing. Under strong satisfaction (Definition 7) a missing value at
// or above the shared row excuses the tuples, so the target survives
// whenever such a value can exist, and dies otherwise (the paper's
// fast path).
type nullInfo struct {
	parentAnyNull []bool // per parent-relation row: any column null
	aboveParent   bool   // nulls anywhere strictly above the parent
}

// keep reports whether buckets meeting at parent row p are worth
// tracking.
func (ni nullInfo) keep(p int32) bool {
	if ni.aboveParent {
		return true
	}
	return ni.parentAnyNull != nil && ni.parentAnyNull[p]
}

// class returns the class of row p under an attribute set X of the
// relation a target is checked at, given X's group ids (nil when X is
// a key) and its missing-value mask. X separates rows in different
// classes. A missing value excuses its row under strong satisfaction:
// class -1, separated from every row, itself included. A stripped
// singleton, or any row when X is a key, is a class of its own,
// numbered past every group id: separated from every other row, but
// not from itself.
func class(gids []int32, nulls []bool, p int32) int32 {
	switch {
	case nulls != nil && nulls[p]:
		return -1
	case gids == nil:
		return p
	case gids[p] >= 0:
		return gids[p]
	}
	return int32(len(gids)) + p
}

// targetScratch is the reusable scratch of one relation's target work,
// owned by its latticeRun: packed sort keys and a row buffer for
// building targets, and epoch-stamped marks over classes for checking
// them (a new epoch clears every mark at once).
type targetScratch struct {
	keys, classes []uint64
	rows          []targetRow
	epoch         uint32
	stamp         []uint32 // per class: the epoch that last marked it
	first         []int32  // per class: the bucket that marked it first
}

// next starts a new epoch over n classes.
func (sc *targetScratch) next(n int) {
	if len(sc.stamp) < n {
		sc.stamp, sc.first, sc.epoch = make([]uint32, n), make([]int32, n), 0
	}
	sc.epoch++
	if sc.epoch == 0 { // wrapped around: old stamps could match again
		clear(sc.stamp)
		sc.epoch = 1
	}
}

// mark records that bucket b reached class c and returns the bucket
// that reached c first in this epoch.
func (sc *targetScratch) mark(c, b int32) int32 {
	if sc.stamp[c] != sc.epoch {
		sc.stamp[c], sc.first[c] = sc.epoch, b
	}
	return sc.first[c]
}

// pack encodes a row's parent and bucket as one sort key.
func pack(parent, bucket int32) uint64 {
	return uint64(parent)<<32 | uint64(uint32(bucket))
}

// addGroup appends one group, given as packed (parent, bucket) keys, to
// rows under the next group number, sorted and without duplicates. A
// group whose keys carry one bucket has nothing left to separate and is
// skipped. addGroup returns false when two buckets meet at a parent row
// that no missing value can excuse: no ancestor attribute set can tell
// them apart, so the target can never hold (Lemma 3 part 1, corrected
// for strong satisfaction). It reorders keys.
func addGroup(rows []targetRow, keys []uint64, ni nullInfo) ([]targetRow, bool) {
	if !slices.ContainsFunc(keys, func(k uint64) bool { return uint32(k) != uint32(keys[0]) }) {
		return rows, true
	}
	slices.Sort(keys)
	g := int32(0)
	if len(rows) > 0 {
		g = rows[len(rows)-1].group + 1
	}
	for i, k := range keys {
		p := int32(k >> 32)
		if i > 0 && k == keys[i-1] {
			continue
		}
		if i > 0 && p == int32(keys[i-1]>>32) && !ni.keep(p) {
			return rows, false
		}
		rows = append(rows, targetRow{group: g, parent: p, bucket: int32(uint32(k))})
	}
	return rows, true
}

// nextGroup splits rows into their first group and the rest.
func nextGroup(rows []targetRow) (grp, rest []targetRow) {
	n := 1
	for n < len(rows) && rows[n].group == rows[0].group {
		n++
	}
	return rows[:n], rows[n:]
}

// createTarget builds the target relation rel hands its parent
// (Figure 10, creatept) in one pass over the tuples of groups. For a
// candidate partial FD, groups is Π_LHS of a failed edge LHS → rhs and
// ids are the group ids of Π_{LHS∪rhs}. For a candidate partial Key X,
// groups is Π_X and ids is nil. A tuple's bucket is its id, or the
// tuple itself when it has none: a stripped singleton, or any tuple of
// a key target. createTarget returns nil when two buckets meet at a
// parent row that no missing value can excuse.
func createTarget(rel *relation.Relation, lhs AttrSet, rhs int, groups *partition.Partition, ids []int32,
	ni nullInfo, sc *targetScratch, opts *Options, st *Stats) *target {

	parents := rel.ParentIdx
	rows := sc.rows[:0]
	for _, g := range groups.Groups {
		keys := sc.keys[:0]
		for _, t := range g {
			b := -1 - t
			if ids != nil && ids[t] >= 0 {
				b = ids[t]
			}
			keys = append(keys, pack(parents[t], b))
		}
		sc.keys = keys
		var ok bool
		rows, ok = addGroup(rows, keys, ni)
		sc.rows = rows
		if !ok {
			targetDropped(rel, opts, st, "degenerate pair unsatisfiable")
			return nil
		}
	}
	targetCreated(rel, opts, st, len(rows))
	return &target{origin: rel, lhs0: lhs, rhs: rhs, keyOnly: ids == nil, rows: slices.Clone(rows)}
}

// convert lifts the target one level up (Figure 10, updatePT). x is the
// attribute set of rel absorbed into the LHS, with gids and nulls as
// for class; x == 0 is a pure conversion, which separates nothing. In
// one pass over the groups, convert refines each group by x's classes,
// dropping the rows x excuses, skips the parts left with one bucket,
// and maps each row to its parent row. Two buckets meeting at a parent
// row that ni cannot excuse kill the target. The satisfied list
// resets: minimality bookkeeping is per level.
func (t *target) convert(rel *relation.Relation, x AttrSet, gids []int32, nulls []bool,
	ni nullInfo, sc *targetScratch, opts *Options, st *Stats) *target {

	parents := rel.ParentIdx
	rows := sc.rows[:0]
	for rest := t.rows; len(rest) > 0; {
		var grp []targetRow
		grp, rest = nextGroup(rest)
		// Sort the group's row indices by class.
		cls := sc.classes[:0]
		for i, r := range grp {
			c := int32(0)
			if x != 0 {
				c = class(gids, nulls, r.parent)
			}
			if c >= 0 {
				cls = append(cls, uint64(c)<<32|uint64(i))
			}
		}
		slices.Sort(cls)
		sc.classes = cls
		for lo, hi := 0, 0; lo < len(cls); lo = hi {
			keys := sc.keys[:0]
			for hi = lo; hi < len(cls) && cls[hi]>>32 == cls[lo]>>32; hi++ {
				r := grp[uint32(cls[hi])]
				keys = append(keys, pack(parents[r.parent], r.bucket))
			}
			sc.keys = keys
			var ok bool
			rows, ok = addGroup(rows, keys, ni)
			sc.rows = rows
			if !ok {
				targetDropped(rel, opts, st, "degenerate pair unsatisfiable at parent")
				return nil
			}
		}
	}
	parts := t.parts
	if x != 0 {
		parts = append(append([]lhsPart(nil), t.parts...), lhsPart{rel: rel, attrs: x})
	}
	targetPropagated(rel, opts, st, len(rows))
	return &target{
		origin:  t.origin,
		lhs0:    t.lhs0,
		rhs:     t.rhs,
		parts:   parts,
		keyOnly: t.keyOnly,
		rows:    slices.Clone(rows),
	}
}

// satisfiedBy reports whether the attribute set given by gids and nulls
// (as for class) satisfies the target: inside every group, the rows of
// one class carry one bucket. gids == nil means the set is a key of the
// relation (Figure 9 line 18); nulls has one entry per row. The check
// visits each row at most once.
func (t *target) satisfiedBy(gids []int32, nulls []bool, sc *targetScratch) bool {
	for rest := t.rows; len(rest) > 0; {
		var grp []targetRow
		grp, rest = nextGroup(rest)
		sc.next(2 * len(nulls))
		for _, r := range grp {
			if c := class(gids, nulls, r.parent); c >= 0 && sc.mark(c, r.bucket) != r.bucket {
				return false
			}
		}
	}
	return true
}

// anySeparated reports whether the attribute set separates two rows the
// target needs told apart, i.e. whether absorbing it makes progress:
// some group spans two classes or holds an excused row. Each group
// spans two buckets, so either case separates rows in different
// buckets.
func (t *target) anySeparated(gids []int32, nulls []bool) bool {
	for rest := t.rows; len(rest) > 0; {
		var grp []targetRow
		grp, rest = nextGroup(rest)
		c0 := class(gids, nulls, grp[0].parent)
		for _, r := range grp {
			if c := class(gids, nulls, r.parent); c < 0 || c != c0 {
				return true
			}
		}
	}
	return false
}

// fdAt materializes the inter-relation FD obtained by absorbing
// attribute set a of relation rel into the target's LHS, with all
// paths relativized to the origin pivot.
func (t *target) fdAt(rel *relation.Relation, a AttrSet, depths []int) FD {
	lhs := t.lhsRels(depths)
	lhs = append(lhs, relPathsFor(rel, a, t.origin, depths)...)
	sortRels(lhs)
	return FD{Class: t.origin.Pivot, LHS: lhs, RHS: t.origin.Attrs[t.rhs].Rel, Inter: true}
}

// keyAt materializes the inter-relation Key analogously.
func (t *target) keyAt(rel *relation.Relation, a AttrSet, depths []int) Key {
	lhs := t.lhsRels(depths)
	lhs = append(lhs, relPathsFor(rel, a, t.origin, depths)...)
	sortRels(lhs)
	return Key{Class: t.origin.Pivot, LHS: lhs, Inter: true}
}

func (t *target) lhsRels(depths []int) []schema.RelPath {
	lhs := relPathsFor(t.origin, t.lhs0, t.origin, depths)
	for _, part := range t.parts {
		lhs = append(lhs, relPathsFor(part.rel, part.attrs, t.origin, depths)...)
	}
	return lhs
}

// relPathsFor expresses attributes of relation rel relative to the
// pivot of the origin relation, e.g. attribute ./contact/name of
// R_store becomes ../contact/name for origin class C_book. depths is
// the run's Relation.Index-indexed depth table (see Run.plan).
func relPathsFor(rel *relation.Relation, a AttrSet, origin *relation.Relation, depths []int) []schema.RelPath {
	ups := depths[origin.Index] - depths[rel.Index]
	out := make([]schema.RelPath, 0, a.Size())
	for _, i := range a.Attrs() {
		out = append(out, liftRelPath(rel.Attrs[i].Rel, ups))
	}
	return out
}

// liftRelPath prefixes a pivot-relative path with ups ".." steps.
func liftRelPath(r schema.RelPath, ups int) schema.RelPath {
	if ups == 0 {
		return r
	}
	prefix := ""
	for i := 0; i < ups; i++ {
		if i > 0 {
			prefix += "/"
		}
		prefix += ".."
	}
	s := string(r)
	switch {
	case s == ".":
		return schema.RelPath(prefix)
	default:
		return schema.RelPath(prefix + "/" + trimDotSlash(s))
	}
}

func trimDotSlash(s string) string {
	if len(s) >= 2 && s[0] == '.' && s[1] == '/' {
		return s[2:]
	}
	return s
}

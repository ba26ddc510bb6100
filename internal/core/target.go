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

// targetCreated records a new target with its deduplicated pair count.
func targetCreated(rel *relation.Relation, opts *Options, st *Stats, pairs int) {
	st.TargetsCreated++
	if opts.Tracer != nil {
		trace.Emit(opts.Tracer, &trace.Event{Kind: trace.KindTarget,
			Relation: string(rel.Pivot), Action: "create", Pairs: pairs})
	}
}

// targetPropagated records a target lifted one relation level up.
func targetPropagated(rel *relation.Relation, opts *Options, st *Stats, pairs int) {
	st.TargetsPropagated++
	if opts.Tracer != nil {
		trace.Emit(opts.Tracer, &trace.Event{Kind: trace.KindTarget,
			Relation: string(rel.Pivot), Action: "propagate", Pairs: pairs})
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

// pair is one inequality t1 ≠ t2 over tuples of the relation the
// target currently lives at, normalized a ≤ b.
//
// A degenerate pair (p, p) arises when two origin tuples share the
// ancestor p: no value can distinguish them, but under strong
// satisfaction (Definition 7) a *missing* value at p or above makes
// the pair vacuous. The paper's updatePT returns NULL in this case,
// which silently assumes ancestor paths are never missing; this
// implementation keeps the degenerate pair — satisfiable only by a
// null-valued attribute — whenever some ancestor relation actually
// contains missing values, and collapses to NULL otherwise (the
// paper's fast path).
type pair struct{ a, b int32 }

func mkPair(a, b int32) pair {
	if a > b {
		a, b = b, a
	}
	return pair{a, b}
}

// lhsPart records attributes absorbed into a target's LHS at one
// relation level.
type lhsPart struct {
	rel   *relation.Relation
	attrs AttrSet
}

// target is a partition target (the paper's Figure 10 struct): a
// candidate partial FD — or, when keyOnly is set, a candidate partial
// Key — originating at relation origin, together with the
// inequalities (pairs) that ancestor attribute sets must satisfy for
// it to hold. Inequalities are expressed in tuple indices of the
// relation the target is currently checked at and are re-expressed on
// parent tuples as the target moves up (convert).
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

	pairs []pair

	// satisfied lists minimal attribute sets of the current relation
	// that already completed the target, for superset suppression.
	satisfied []AttrSet
}

// clone returns a copy safe to offer to a fresh run: the satisfied
// list is reset (the consuming relation appends to it per level), and
// the immutable pairs and parts are shared. The warm layer hands out
// clones of cached outgoing targets so that one run's minimality
// bookkeeping never leaks into the next.
func (t *target) clone() *target {
	c := *t
	c.satisfied = nil
	return &c
}

// pairSet collects a target's pairs during construction as packed
// uint64s (a<<32 | b, which orders like (a, b)), appended raw and then
// sorted and deduplicated. Duplicate pairs across partition groups are
// common, so the raw stream is compacted whenever it reaches twice the
// cap, which keeps memory bounded by the cap. The cap applies to the
// deduplicated size and is checked before each insert: the set
// overflows exactly when the distinct pairs added before the final add
// already number max or more. add detects that at its compaction
// points; slice settles it for the rest of the stream.
type pairSet struct {
	packed   []uint64
	max      int
	overflow bool
}

func newPairSet(max int) *pairSet {
	return &pairSet{max: max}
}

func (ps *pairSet) add(p pair) {
	if ps.overflow {
		return
	}
	if len(ps.packed) >= 2*ps.max {
		ps.compact()
		if len(ps.packed) >= ps.max {
			ps.overflow = true
			return
		}
	}
	ps.packed = append(ps.packed, uint64(uint32(p.a))<<32|uint64(uint32(p.b)))
}

func (ps *pairSet) compact() {
	slices.Sort(ps.packed)
	ps.packed = slices.Compact(ps.packed)
}

// slice settles the cap against every add but the last, then returns
// the deduplicated pairs in (a, b) order, deterministic for downstream
// reproducibility. Callers check overflow after calling it.
func (ps *pairSet) slice() []pair {
	if n := len(ps.packed); n > 0 && !ps.overflow {
		last := ps.packed[n-1]
		ps.packed = ps.packed[:n-1]
		ps.compact()
		if len(ps.packed) >= ps.max {
			ps.overflow = true
		} else if i, found := slices.BinarySearch(ps.packed, last); !found {
			ps.packed = slices.Insert(ps.packed, i, last)
		}
	}
	if ps.overflow {
		return nil
	}
	out := make([]pair, len(ps.packed))
	for i, v := range ps.packed {
		out[i] = pair{a: int32(v >> 32), b: int32(uint32(v))}
	}
	return out
}

// nullInfo tells target construction whether a degenerate pair at a
// given parent tuple can ever be satisfied vacuously: the parent
// relation must have a missing value in that row, or missing values
// must exist strictly above it.
type nullInfo struct {
	parentAnyNull []bool // per parent-relation row: any column null
	aboveParent   bool   // nulls anywhere strictly above the parent
}

// keep reports whether a degenerate pair at parent tuple p is worth
// tracking.
func (ni nullInfo) keep(p int32) bool {
	if ni.aboveParent {
		return true
	}
	return ni.parentAnyNull != nil && ni.parentAnyNull[p]
}

// separated reports whether the attribute set described by gids and
// nulls satisfies the inequality p under strong satisfaction: a
// degenerate pair is vacuously satisfied iff some attribute of the
// set is missing at that tuple; a distinct pair is satisfied iff the
// partition separates the tuples. gids == nil means the attribute set
// is a key of its relation (separates every distinct pair).
func separated(p pair, gids []int32, nulls []bool) bool {
	if p.a == p.b {
		return nulls != nil && nulls[p.a]
	}
	if gids == nil {
		return true
	}
	return partition.Separates(gids, p.a, p.b)
}

// parentMarks is the reusable scratch of target creation, owned by one
// relation's latticeRun. Epoch stamps over the parent relation's rows
// mark the parents seen in the current Π group — a new epoch clears
// every mark at once — together with the bucket that reached each one
// first; keys, parents and ends hold one group's sort keys and its
// runs of distinct parents.
type parentMarks struct {
	epoch   uint32
	stamp   []uint32 // per parent row: the epoch that last marked it
	first   []int32  // per parent row: the bucket that marked it
	keys    []uint64
	parents []int32
	ends    []int // end offset in parents of each run
}

// next starts a new epoch over n parent rows.
func (pm *parentMarks) next(n int) {
	if len(pm.stamp) < n {
		pm.stamp, pm.first, pm.epoch = make([]uint32, n), make([]int32, n), 0
	}
	pm.epoch++
	if pm.epoch == 0 { // wrapped around: old stamps could match again
		clear(pm.stamp)
		pm.epoch = 1
	}
}

// mark records that bucket b reached parent row p. It returns the
// bucket that reached p first in this epoch and whether p was already
// marked.
func (pm *parentMarks) mark(p, b int32) (int32, bool) {
	if pm.stamp[p] == pm.epoch {
		return pm.first[p], true
	}
	pm.stamp[p], pm.first[p] = pm.epoch, b
	return b, false
}

// run returns the i-th run of distinct parents.
func (pm *parentMarks) run(i int) []int32 {
	lo := 0
	if i > 0 {
		lo = pm.ends[i-1]
	}
	return pm.parents[lo:pm.ends[i]]
}

// createTarget builds a candidate-partial-FD target from a failed
// intra-relation edge LHS → rhs at relation rel (Figure 10,
// creatept). plhs is Π_LHS; allIDs are the group ids of Π_{LHS∪rhs}.
// It returns nil when a violating pair shares a parent tuple and no
// ancestor relation has missing values that could satisfy it
// vacuously (Lemma 3 part 1, corrected for strong satisfaction).
func createTarget(rel *relation.Relation, lhs AttrSet, rhs int,
	plhs *partition.Partition, nAllGroups int, allIDs []int32,
	ni nullInfo, pm *parentMarks, opts *Options, st *Stats) *target {

	parents := rel.ParentIdx
	fdSet := newPairSet(opts.maxTargetPairs())

	// For each Π_LHS group, split tuples into buckets by their
	// Π_{LHS∪rhs} group (stripped singletons are buckets of their own,
	// numbered from nAllGroups in row order). Cross-bucket tuple pairs
	// violate the FD at this level and must be separated — or
	// vacuously excused — by their ancestors.
	for _, g := range plhs.Groups {
		keys := pm.keys[:0]
		next := uint64(nAllGroups)
		first := allIDs[g[0]]
		one := first >= 0
		for _, t := range g {
			id := allIDs[t]
			one = one && id == first
			b := next
			if id >= 0 {
				b = uint64(id)
			} else {
				next++
			}
			keys = append(keys, b<<32|uint64(t))
		}
		pm.keys = keys
		if one {
			continue // one bucket: no violation within this group
		}
		// Sorting the packed (bucket, tuple) keys visits buckets in
		// ascending id, each bucket's tuples in row order. The order
		// matters: a parent spanning two buckets is attributed to the
		// first that reaches it, which decides the cross-bucket pairs
		// enumerated below.
		slices.Sort(keys)
		// Distinct parents per bucket, one run each; a parent spanning
		// two buckets yields a degenerate pair.
		pm.next(rel.Parent.NRows())
		pm.parents, pm.ends = pm.parents[:0], pm.ends[:0]
		for i, k := range keys {
			if i > 0 && k>>32 != keys[i-1]>>32 {
				pm.ends = append(pm.ends, len(pm.parents))
			}
			b, p := int32(k>>32), parents[uint32(k)]
			if fb, seen := pm.mark(p, b); !seen {
				pm.parents = append(pm.parents, p)
			} else if fb != b {
				if !ni.keep(p) {
					targetDropped(rel, opts, st, "degenerate pair unsatisfiable")
					return nil
				}
				fdSet.add(pair{p, p})
			}
		}
		pm.ends = append(pm.ends, len(pm.parents))
		// All cross-bucket parent pairs must be separated upstream (no
		// parent is in two runs). Bound the enumeration first:
		// Σ_{i<j} |P_i|·|P_j| = (T² − Σ|P_i|²)/2.
		total, sq := len(pm.parents), 0
		for i := range pm.ends {
			sq += len(pm.run(i)) * len(pm.run(i))
		}
		if (total*total-sq)/2 > opts.maxTargetPairs() {
			targetDropped(rel, opts, st, "pair bound exceeded")
			return nil
		}
		for i := range pm.ends {
			for j := i + 1; j < len(pm.ends); j++ {
				for _, p1 := range pm.run(i) {
					for _, p2 := range pm.run(j) {
						fdSet.add(mkPair(p1, p2))
					}
				}
			}
		}
	}
	ps := fdSet.slice()
	if fdSet.overflow {
		targetDropped(rel, opts, st, "pair set overflow")
		return nil
	}
	targetCreated(rel, opts, st, len(ps))
	return &target{
		origin: rel,
		lhs0:   lhs,
		rhs:    rhs,
		pairs:  ps,
	}
}

// createKeyTarget builds a candidate-partial-Key target for attribute
// set a at relation rel: a is not a key of the relation, but ancestor
// attributes could complete it into an inter-relation Key (the
// KeyTarget side of Figure 10). Two tuples agreeing on a under one
// parent yield a degenerate pair (key possible only through a missing
// ancestor value); with no nulls above, the target dies immediately.
func createKeyTarget(rel *relation.Relation, a AttrSet, pa *partition.Partition,
	ni nullInfo, pm *parentMarks, opts *Options, st *Stats) *target {

	max := opts.maxTargetPairs()
	parents := rel.ParentIdx

	// Phase 1: distinct parents per group, one run each, and an upper
	// bound on the pair count, so hopeless targets are dropped before
	// any quadratic enumeration.
	pm.parents, pm.ends = pm.parents[:0], pm.ends[:0]
	var degenerates []int32
	bound := 0
	for _, g := range pa.Groups {
		pm.next(rel.Parent.NRows())
		start := len(pm.parents)
		for _, t := range g {
			p := parents[t]
			if _, seen := pm.mark(p, 0); !seen {
				pm.parents = append(pm.parents, p)
				continue
			}
			if !ni.keep(p) {
				targetDropped(rel, opts, st, "degenerate pair unsatisfiable")
				return nil
			}
			degenerates = append(degenerates, p)
		}
		n := len(pm.parents) - start
		bound += n * (n - 1) / 2
		if bound > max {
			targetDropped(rel, opts, st, "pair bound exceeded")
			return nil
		}
		pm.ends = append(pm.ends, len(pm.parents))
	}

	keySet := newPairSet(max)
	for _, p := range degenerates {
		keySet.add(pair{p, p})
	}
	for g := range pm.ends {
		ps := pm.run(g)
		for i := range ps {
			for j := i + 1; j < len(ps); j++ {
				keySet.add(mkPair(ps[i], ps[j]))
			}
		}
	}
	ps := keySet.slice()
	if keySet.overflow {
		targetDropped(rel, opts, st, "pair set overflow")
		return nil
	}
	targetCreated(rel, opts, st, len(ps))
	return &target{
		origin:  rel,
		lhs0:    a,
		keyOnly: true,
		pairs:   ps,
	}
}

// convert lifts the target one level up (Figure 10, updatePT):
// inequalities not already satisfied by (gids, nulls) — both nil for
// a pure conversion — are re-expressed on parent tuples of rel.
// ni tells whether a collapsing pair can still be satisfied by a
// missing value at or above the parent; otherwise it kills the
// target. The satisfied list resets: minimality bookkeeping is per
// level.
func (t *target) convert(rel *relation.Relation, gids []int32, nulls []bool,
	absorbed AttrSet, ni nullInfo, opts *Options, st *Stats) *target {

	parents := rel.ParentIdx
	set := newPairSet(opts.maxTargetPairs())
	for _, p := range t.pairs {
		if (gids != nil || nulls != nil) && separated(p, gids, nulls) {
			continue
		}
		pa, pb := parents[p.a], parents[p.b]
		if pa == pb && !ni.keep(pa) {
			targetDropped(rel, opts, st, "degenerate pair unsatisfiable at parent")
			return nil
		}
		set.add(mkPair(pa, pb))
	}
	ps := set.slice()
	if set.overflow {
		targetDropped(rel, opts, st, "pair set overflow")
		return nil
	}
	parts := t.parts
	if absorbed != 0 {
		parts = append(append([]lhsPart(nil), t.parts...), lhsPart{rel: rel, attrs: absorbed})
	}
	targetPropagated(rel, opts, st, len(ps))
	return &target{
		origin:  t.origin,
		lhs0:    t.lhs0,
		rhs:     t.rhs,
		parts:   parts,
		keyOnly: t.keyOnly,
		pairs:   ps,
	}
}

// satisfiedBy reports whether the attribute set described by (gids,
// nulls) satisfies every inequality. gids == nil means the set is a
// key of the relation (Figure 9 line 18); nulls must still be
// supplied for degenerate pairs.
func (t *target) satisfiedBy(gids []int32, nulls []bool) bool {
	for _, p := range t.pairs {
		if !separated(p, gids, nulls) {
			return false
		}
	}
	return true
}

// anySeparated reports whether (gids, nulls) satisfies at least one
// inequality, i.e. whether absorbing the attribute set makes progress.
func (t *target) anySeparated(gids []int32, nulls []bool) bool {
	for _, p := range t.pairs {
		if separated(p, gids, nulls) {
			return true
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

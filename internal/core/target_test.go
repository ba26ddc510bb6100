package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"discoverxfd/internal/partition"
	"discoverxfd/internal/relation"
	"discoverxfd/internal/schema"
)

// The pair oracle below states partition targets the way the paper's
// Figure 10 does: as inequalities t1 ≠ t2 over the rows a target is
// checked at, listed by brute force from every two origin tuples the
// candidate must tell apart. It applies the pair rules to that list: a
// pair (p, p) is separated only by a missing value at p, two distinct
// rows by any disagreement, and a pair that is not separated moves to
// the rows' parents, killing the target when it joins one parent row
// that no missing value can excuse. Row targets must decide every
// question exactly as the pair list does.

// pairKey is an inequality over two rows, normalized a ≤ b.
type pairKey [2]int32

func mkPairKey(a, b int32) pairKey {
	if a > b {
		a, b = b, a
	}
	return pairKey{a, b}
}

// agree reports whether tuples a and b of r agree on every attribute
// of x. Missing values carry codes unique to their tuple, so a missing
// value never agrees with anything (strong satisfaction).
func agree(r *relation.Relation, x AttrSet, a, b int32) bool {
	for _, i := range x.Attrs() {
		if r.Cols[i][a] != r.Cols[i][b] {
			return false
		}
	}
	return true
}

// missingAt reports whether some attribute of x is missing at row p.
func missingAt(r *relation.Relation, x AttrSet, p int32) bool {
	for _, i := range x.Attrs() {
		if relation.IsNull(r.Cols[i][p]) {
			return true
		}
	}
	return false
}

// pairSeparated applies the pair rules to one inequality over rows of
// r under attribute set x.
func pairSeparated(r *relation.Relation, x AttrSet, p pairKey) bool {
	if p[0] == p[1] {
		return missingAt(r, x, p[0])
	}
	return !agree(r, x, p[0], p[1])
}

// pairCreate lists the parent-row pairs of every two origin tuples that
// agree on lhs but not on rhs; rhs < 0 asks for the key target of lhs,
// where any two tuples that agree on lhs count. It reports whether the
// target lives.
func pairCreate(rel *relation.Relation, lhs AttrSet, rhs int, ni nullInfo) (map[pairKey]bool, bool) {
	pairs := map[pairKey]bool{}
	alive := true
	for t1 := int32(0); int(t1) < rel.NRows(); t1++ {
		for t2 := t1 + 1; int(t2) < rel.NRows(); t2++ {
			if !agree(rel, lhs, t1, t2) || rhs >= 0 && agree(rel, AttrSet(0).Add(rhs), t1, t2) {
				continue
			}
			p := mkPairKey(rel.ParentIdx[t1], rel.ParentIdx[t2])
			if p[0] == p[1] && !ni.keep(p[0]) {
				alive = false
			}
			pairs[p] = true
		}
	}
	return pairs, alive
}

// pairConvert moves the pairs that x (0: nothing) leaves unseparated at
// relation r to r's parent rows, reporting whether the target lives.
func pairConvert(pairs map[pairKey]bool, r *relation.Relation, x AttrSet, ni nullInfo) (map[pairKey]bool, bool) {
	out := map[pairKey]bool{}
	alive := true
	for p := range pairs {
		if x != 0 && pairSeparated(r, x, p) {
			continue
		}
		q := mkPairKey(r.ParentIdx[p[0]], r.ParentIdx[p[1]])
		if q[0] == q[1] && !ni.keep(q[0]) {
			alive = false
		}
		out[q] = true
	}
	return out, alive
}

// rowPairs lists the inequalities a row target stands for: the rows of
// every two of its origin tuples in one group and different buckets.
func rowPairs(t *target) map[pairKey]bool {
	out := map[pairKey]bool{}
	for _, a := range t.rows {
		for _, b := range t.rows {
			if a.group == b.group && a.bucket != b.bucket {
				out[mkPairKey(a.parent, b.parent)] = true
			}
		}
	}
	return out
}

// checkRowInvariants verifies a target's row layout: sorted by (group,
// parent, bucket) without duplicates, groups numbered from 0 in order,
// each spanning two buckets, and at most one row per origin tuple.
func checkRowInvariants(t *testing.T, what string, pt *target) {
	t.Helper()
	if len(pt.rows) > pt.origin.NRows() {
		t.Errorf("%s: %d rows for %d origin tuples", what, len(pt.rows), pt.origin.NRows())
	}
	for i, r := range pt.rows {
		if i == 0 && r.group != 0 {
			t.Errorf("%s: first group is %d", what, r.group)
		}
		if i > 0 {
			q := pt.rows[i-1]
			if r.group != q.group && r.group != q.group+1 {
				t.Errorf("%s: group %d follows group %d", what, r.group, q.group)
			}
			if r.group == q.group && pack(r.parent, r.bucket) <= pack(q.parent, q.bucket) {
				t.Errorf("%s: rows %v, %v out of order or duplicated", what, q, r)
			}
		}
	}
	for rest := pt.rows; len(rest) > 0; {
		var grp []targetRow
		grp, rest = nextGroup(rest)
		if !slices.ContainsFunc(grp, func(r targetRow) bool { return r.bucket != grp[0].bucket }) {
			t.Errorf("%s: group %d carries one bucket", what, grp[0].group)
		}
	}
}

func mapsEqual(a, b map[pairKey]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// targetWorld is one random document's hierarchy with the run tables
// and partitions target work reads.
type targetWorld struct {
	run   *Run
	cache *partitionCache
	sc    *partition.Scratch
	opts  Options
	st    Stats
	ts    targetScratch
}

func newTargetWorld(t *testing.T, seed int64) *targetWorld {
	t.Helper()
	h, err := relation.Build(randomDoc(seed), naiveSchema, relation.Options{})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	run := newRun(nil, h, Options{}, true)
	if err := run.plan(); err != nil {
		t.Fatalf("plan: %v", err)
	}
	return &targetWorld{run: run, cache: newPartitionCache(0), sc: partition.GetScratch(h.TotalTuples())}
}

// nullInfo returns what target work at r reads about missing values at
// and above r's parent, as Run.traverse hands it over.
func (w *targetWorld) nullInfo(r *relation.Relation) nullInfo {
	p := r.Parent
	return nullInfo{parentAnyNull: w.run.anyNull[p.Index],
		aboveParent: p.Parent != nil && w.run.nullsAtOrAbove[p.Parent.Index]}
}

func (w *targetWorld) partition(r *relation.Relation, x AttrSet) *partition.Partition {
	return w.cache.partitionOf(w.cache.store(r), x, w.sc, false, nil)
}

// classesOf returns x's group ids and missing-value mask as the lattice
// passes them to target checks: gids is nil when x is a key.
func (w *targetWorld) classesOf(r *relation.Relation, x AttrSet) ([]int32, []bool) {
	nulls := make([]bool, r.NRows())
	for p := range nulls {
		nulls[p] = missingAt(r, x, int32(p))
	}
	if px := w.partition(r, x); !px.IsKey() {
		return px.GroupIDs(), nulls
	}
	return nil, nulls
}

// checkTargetsAgainstPairs builds every FD target with |LHS| ≤ 2 and
// every key target of an attribute set X with |X| ≤ 2 at each relation
// of one random document. It walks each surviving target up the
// hierarchy, absorbing random attribute sets, and requires the row
// target to agree with the pair oracle on creation, satisfiedBy,
// anySeparated and convert.
func checkTargetsAgainstPairs(t *testing.T, docSeed int64, choices uint64) {
	w := newTargetWorld(t, docSeed)
	rnd := rand.New(rand.NewSource(int64(choices)))
	for _, origin := range w.run.h.EssentialRelations() {
		m := origin.NAttrs()
		for lhs := AttrSet(0); lhs < AttrSet(1)<<m; lhs++ {
			if lhs.Size() > 2 {
				continue
			}
			for rhs := -1; rhs < m; rhs++ {
				if rhs >= 0 && lhs.Has(rhs) {
					continue
				}
				what := fmt.Sprintf("doc %d, %s: key target of %v", docSeed, origin.Pivot, lhs.Attrs())
				var ids []int32
				if rhs >= 0 {
					what = fmt.Sprintf("doc %d, %s: FD target %v -> %d", docSeed, origin.Pivot, lhs.Attrs(), rhs)
					ids = w.partition(origin, lhs.Add(rhs)).GroupIDs()
				}
				ni := w.nullInfo(origin)
				pairs, alive := pairCreate(origin, lhs, rhs, ni)
				pt := createTarget(origin, lhs, rhs, w.partition(origin, lhs), ids, ni, &w.ts, &w.opts, &w.st)
				if (pt != nil) != alive {
					t.Fatalf("%s: created alive=%v, pair oracle says %v", what, pt != nil, alive)
				}
				if pt != nil {
					w.walkUp(t, what, pt, pairs, origin.Parent, rnd)
				}
			}
		}
	}
}

// walkUp checks target pt, which the pair oracle states as pairs, at
// relation r and at every essential relation above it.
func (w *targetWorld) walkUp(t *testing.T, what string, pt *target, pairs map[pairKey]bool,
	r *relation.Relation, rnd *rand.Rand) {
	t.Helper()
	for ; r.Essential; r = r.Parent {
		checkRowInvariants(t, what, pt)
		if got := rowPairs(pt); !mapsEqual(got, pairs) {
			t.Fatalf("%s at %s: rows stand for pairs %v, pair oracle has %v", what, r.Pivot, got, pairs)
		}
		// Absorb a random nonempty attribute set of r, or, on a coin
		// flip (and always when r has no attributes), convert purely.
		x := AttrSet(0)
		var gids []int32
		var nulls []bool
		if m := r.NAttrs(); m > 0 {
			x = AttrSet(rnd.Uint64() & (1<<m - 1))
			if x == 0 {
				x = x.Add(rnd.Intn(m))
			}
			gids, nulls = w.classesOf(r, x)
			all, any := true, false
			for p := range pairs {
				sep := pairSeparated(r, x, p)
				all, any = all && sep, any || sep
			}
			if got := pt.satisfiedBy(gids, nulls, &w.ts); got != all {
				t.Fatalf("%s at %s: satisfiedBy(%v) = %v, pair oracle says %v", what, r.Pivot, x.Attrs(), got, all)
			}
			if got := pt.anySeparated(gids, nulls); got != any {
				t.Fatalf("%s at %s: anySeparated(%v) = %v, pair oracle says %v", what, r.Pivot, x.Attrs(), got, any)
			}
			if rnd.Intn(2) == 0 {
				x, gids, nulls = 0, nil, nil
			}
		}
		ni := w.nullInfo(r)
		pt = pt.convert(r, x, gids, nulls, ni, &w.ts, &w.opts, &w.st)
		var alive bool
		pairs, alive = pairConvert(pairs, r, x, ni)
		if (pt != nil) != alive {
			t.Fatalf("%s at %s: convert(%v) alive=%v, pair oracle says %v", what, r.Pivot, x.Attrs(), pt != nil, alive)
		}
		if pt == nil {
			return
		}
	}
}

// FuzzTargetMatchesPairOracle drives checkTargetsAgainstPairs from a
// document seed and a seed for the attribute sets each walk absorbs.
// Under plain go test the seed corpus runs as a unit test.
func FuzzTargetMatchesPairOracle(f *testing.F) {
	for seed := int64(1); seed <= 30; seed++ {
		f.Add(seed, uint64(seed))
	}
	f.Fuzz(func(t *testing.T, docSeed int64, choices uint64) {
		checkTargetsAgainstPairs(t, docSeed, choices)
	})
}

// TestTargetCapTruncates checks that the one cap on targets marks the
// result partial: a warehouse run allowed one outgoing target per
// relation drops the rest, is Truncated, and names the relation.
func TestTargetCapTruncates(t *testing.T) {
	h := buildWarehouse(t, relation.Options{})
	res, err := Discover(h, Options{PropagatePartial: true, MaxTargetsPerRelation: 1})
	if err != nil {
		t.Fatal(err)
	}
	const prefix = "outgoing target cap 1 reached for relation "
	reason := res.Stats.TruncatedReason
	if !res.Stats.Truncated || !strings.HasPrefix(reason, prefix) {
		t.Fatalf("Truncated=%v reason=%q, want the target cap", res.Stats.Truncated, reason)
	}
	if rel := h.ByPivot(schema.Path(strings.TrimPrefix(reason, prefix))); rel == nil || !rel.Essential {
		t.Errorf("reason %q names no relation of the hierarchy", reason)
	}
}

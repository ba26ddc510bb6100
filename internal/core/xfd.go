package core

import (
	"slices"
	"sort"
	"strings"

	"discoverxfd/internal/partition"
	"discoverxfd/internal/relation"
	"discoverxfd/internal/schema"
)

// mergeStats accumulates per-subtree instrumentation. WallTime and
// Stages are deliberately not merged: they are run-scoped wall-clock
// measurements the pipeline stamps once per run and stage, not
// summable per-subtree quantities (summing them across parallel
// subtrees would recreate the double-counting the Stats docs rule
// out).
func mergeStats(dst, src *Stats) {
	dst.Relations += src.Relations
	dst.RelationsReused += src.RelationsReused
	dst.Tuples += src.Tuples
	dst.NodesVisited += src.NodesVisited
	dst.PartitionsComputed += src.PartitionsComputed
	dst.ParallelProducts += src.ParallelProducts
	dst.TargetsCreated += src.TargetsCreated
	dst.TargetsPropagated += src.TargetsPropagated
	dst.TargetsDropped += src.TargetsDropped
	dst.TargetChecks += src.TargetChecks
	dst.IntraTime += src.IntraTime
	dst.InterTime += src.InterTime
}

// verifyFD evaluates one candidate FD for the final Definition 11
// filter, from partitions: Π_LHS over the origin's rows supplies the
// LHS-equal groups, and evaluation counts the RHS within them. An
// intra-relation LHS reads Π_LHS from the run's partition cache. An
// inter-relation LHS multiplies the lifted partitions of its
// attributes, which the verifier memoizes and keeps out of the cache,
// whose counters the Result reports. The naive engine verifies with
// Evaluate instead, the public evaluator and the test oracle; so does
// an FD whose paths do not resolve (for Evaluate's error) or whose RHS
// column has no interned codes.
func (v *verifier) verifyFD(fd FD) (Evaluation, error) {
	origin := v.h.ByPivot(fd.Class)
	if v.naive || origin == nil {
		return Evaluate(v.h, fd.Class, fd.LHS, fd.RHS)
	}
	rhs, err := resolveRef(v.h, origin, fd.RHS)
	if err != nil || rhs.ups != 0 || rhs.attr >= len(origin.ColBound) {
		return Evaluate(v.h, fd.Class, fd.LHS, fd.RHS)
	}
	refs := make([]ref, len(fd.LHS))
	local, inter := AttrSet(0), false
	for i, rp := range fd.LHS {
		if refs[i], err = resolveRef(v.h, origin, rp); err != nil {
			return Evaluate(v.h, fd.Class, fd.LHS, fd.RHS)
		}
		local = local.Add(refs[i].attr)
		inter = inter || refs[i].ups > 0
	}
	var p *partition.Partition
	if inter {
		p = v.lhsPartition(origin, refs)
	} else {
		p = v.cache.partitionOf(v.cache.store(origin), local, v.sc, false, nil)
	}
	return v.evaluation(p, origin.Cols[rhs.attr], origin.ColBound[rhs.attr]), nil
}

// lhsSet is one LHS path set interned by an lhsInterner: the ids of
// its paths (an LHS lists distinct paths), ascending, and a signature
// with bit id%64 set for each. A subset test rejects on the signatures
// first and merges the ids only when they pass, so sets of any width
// compare without building a map.
type lhsSet struct {
	ids []int32
	sig uint64
}

// subsetOf reports whether s ⊆ t.
func (s lhsSet) subsetOf(t lhsSet) bool {
	if s.sig&^t.sig != 0 || len(s.ids) > len(t.ids) {
		return false
	}
	j := 0
	for _, id := range s.ids {
		for j < len(t.ids) && t.ids[j] < id {
			j++
		}
		if j == len(t.ids) || t.ids[j] != id {
			return false
		}
		j++
	}
	return true
}

// lhsInterner numbers LHS paths in first-seen order. One interner
// serves a whole minimize stage, so its FDs and keys share ids. Sets
// are compared only within one class, so one numbering serves every
// class.
type lhsInterner struct {
	ids map[schema.RelPath]int32
	buf []int32 // backing store the sets' ids are cut from
}

func newLHSInterner() *lhsInterner {
	return &lhsInterner{ids: make(map[schema.RelPath]int32)}
}

// set interns one LHS.
func (in *lhsInterner) set(lhs []schema.RelPath) lhsSet {
	start := len(in.buf)
	var sig uint64
	for _, p := range lhs {
		id, ok := in.ids[p]
		if !ok {
			id = int32(len(in.ids))
			in.ids[p] = id
		}
		in.buf = append(in.buf, id)
		sig |= 1 << uint(id%64)
	}
	ids := in.buf[start:len(in.buf):len(in.buf)]
	slices.Sort(ids)
	return lhsSet{ids: ids, sig: sig}
}

// minimal reports, for each set, that no other set of its group (the
// sets cmp finds equal) is a strict subset of it, or an equal set at
// an earlier index: among duplicates the first occurrence wins. The
// indices are sorted by group, then by size, ties in index order, so
// only a set sorted before sets[i] in its group can be either; each
// set scans those on a dense copy of their signatures.
func minimal(sets []lhsSet, cmp func(i, j int) int) []bool {
	n := len(sets)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(i, j int) int {
		if c := cmp(i, j); c != 0 {
			return c
		}
		return len(sets[i].ids) - len(sets[j].ids)
	})
	sigs := make([]uint64, n)
	for k, i := range order {
		sigs[k] = sets[i].sig
	}
	keep := make([]bool, n)
	first := 0 // order[first:k] is the part of i's group sorted before it
	for k, i := range order {
		if cmp(order[first], i) != 0 {
			first = k
		}
		keep[i] = true
		for l := first; l < k; l++ {
			if sigs[l]&^sigs[k] == 0 && sets[order[l]].subsetOf(sets[i]) {
				keep[i] = false
				break
			}
		}
	}
	return keep
}

// kept returns the elements of xs whose keep entry is set, in order,
// in a slice of exactly that size (nil when none is).
func kept[T any](xs []T, keep []bool) []T {
	n := 0
	for _, k := range keep {
		if k {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]T, 0, n)
	for i, x := range xs {
		if keep[i] {
			out = append(out, x)
		}
	}
	return out
}

// goal identifies the FDs that can imply one another: those with the
// same class and RHS.
type goal struct {
	class schema.Path
	rhs   schema.RelPath
}

func goalOf(f FD) goal { return goal{f.Class, f.RHS} }

// minimalByGoal interns the LHS of every FD and marks the FDs that no
// other FD of the same goal makes non-minimal (see minimal).
func (in *lhsInterner) minimalByGoal(fds []FD) (sets []lhsSet, keep []bool) {
	sets = make([]lhsSet, len(fds))
	for i, f := range fds {
		sets[i] = in.set(f.LHS)
	}
	return sets, minimal(sets, func(i, j int) int {
		if c := strings.Compare(string(fds[i].Class), string(fds[j].Class)); c != 0 {
			return c
		}
		return strings.Compare(string(fds[i].RHS), string(fds[j].RHS))
	})
}

// minimizeFDs removes duplicates and FDs whose LHS strictly contains
// another FD's LHS for the same class and RHS. Partial-propagation
// targets can produce such non-minimal variants when several
// absorption orders reach the same conclusion.
func (in *lhsInterner) minimizeFDs(fds []FD) []FD {
	_, keep := in.minimalByGoal(fds)
	return kept(fds, keep)
}

// minimizeKeys removes duplicates and keys whose LHS strictly
// contains another key's LHS for the same class.
func (in *lhsInterner) minimizeKeys(keys []Key) []Key {
	sets := make([]lhsSet, len(keys))
	for i, k := range keys {
		sets[i] = in.set(k.LHS)
	}
	return kept(keys, minimal(sets, func(i, j int) int {
		return strings.Compare(string(keys[i].Class), string(keys[j].Class))
	}))
}

// dropSuperkeyLHS removes FDs whose LHS contains a discovered key of
// the same class: a superkey LHS satisfies any FD trivially and
// indicates no redundancy (Definition 11).
func (in *lhsInterner) dropSuperkeyLHS(fds []FD, keys []Key) []FD {
	byClass := make(map[schema.Path][]lhsSet)
	for _, k := range keys {
		byClass[k.Class] = append(byClass[k.Class], in.set(k.LHS))
	}
	out := fds[:0]
	for _, fd := range fds {
		s := in.set(fd.LHS)
		if !slices.ContainsFunc(byClass[fd.Class], func(k lhsSet) bool { return k.subsetOf(s) }) {
			out = append(out, fd)
		}
	}
	return out
}

// minimizeApprox removes approximate FDs implied by an exact FD or by
// another approximate FD with a subset LHS for the same class and
// RHS, and deduplicates. Low-domain corpora produce thousands of
// approximate FDs, so only same-goal FDs are compared, on interned
// sets.
func (in *lhsInterner) minimizeApprox(approx, exact []FD) []FD {
	exactByGoal := make(map[goal][]lhsSet)
	for _, e := range exact {
		exactByGoal[goalOf(e)] = append(exactByGoal[goalOf(e)], in.set(e.LHS))
	}
	sets, keep := in.minimalByGoal(approx)
	for i, a := range approx {
		if keep[i] && slices.ContainsFunc(exactByGoal[goalOf(a)], func(e lhsSet) bool { return e.subsetOf(sets[i]) }) {
			keep[i] = false
		}
	}
	return kept(approx, keep)
}

func sortRedundancies(rs []Redundancy) {
	lhs := make([]string, len(rs))
	for i := range rs {
		lhs[i] = joinRels(rs[i].FD.LHS)
	}
	sort.Sort(&redundancySorter{rs: rs, lhs: lhs})
}

// redundancySorter orders redundancies by (class, RHS, joined LHS)
// with the joined-LHS key computed once per element; joining inside
// the comparator allocated O(n log n) strings, which dominated result
// assembly on low-domain corpora with thousands of approximate FDs
// (the same precomputation backs fdSorter).
type redundancySorter struct {
	rs  []Redundancy
	lhs []string
}

func (s *redundancySorter) Len() int { return len(s.rs) }
func (s *redundancySorter) Swap(i, j int) {
	s.rs[i], s.rs[j] = s.rs[j], s.rs[i]
	s.lhs[i], s.lhs[j] = s.lhs[j], s.lhs[i]
}
func (s *redundancySorter) Less(i, j int) bool {
	a, b := s.rs[i].FD, s.rs[j].FD
	if a.Class != b.Class {
		return a.Class < b.Class
	}
	if a.RHS != b.RHS {
		return a.RHS < b.RHS
	}
	return s.lhs[i] < s.lhs[j]
}

func intraFD(r *relation.Relation, e edge) FD {
	lhs := make([]schema.RelPath, 0, e.lhs.Size())
	for _, i := range e.lhs.Attrs() {
		lhs = append(lhs, r.Attrs[i].Rel)
	}
	sortRels(lhs)
	return FD{Class: r.Pivot, LHS: lhs, RHS: r.Attrs[e.rhs].Rel}
}

func intraKey(r *relation.Relation, k AttrSet) Key {
	lhs := make([]schema.RelPath, 0, k.Size())
	for _, i := range k.Attrs() {
		lhs = append(lhs, r.Attrs[i].Rel)
	}
	sortRels(lhs)
	return Key{Class: r.Pivot, LHS: lhs}
}

func sortFDs(fds []FD) {
	lhs := make([]string, len(fds))
	for i := range fds {
		lhs[i] = joinRels(fds[i].LHS)
	}
	sort.Sort(&fdSorter{fds: fds, lhs: lhs})
}

// fdSorter: see redundancySorter for why the LHS key is precomputed.
type fdSorter struct {
	fds []FD
	lhs []string
}

func (s *fdSorter) Len() int { return len(s.fds) }
func (s *fdSorter) Swap(i, j int) {
	s.fds[i], s.fds[j] = s.fds[j], s.fds[i]
	s.lhs[i], s.lhs[j] = s.lhs[j], s.lhs[i]
}
func (s *fdSorter) Less(i, j int) bool {
	if s.fds[i].Class != s.fds[j].Class {
		return s.fds[i].Class < s.fds[j].Class
	}
	if s.fds[i].RHS != s.fds[j].RHS {
		return s.fds[i].RHS < s.fds[j].RHS
	}
	return s.lhs[i] < s.lhs[j]
}

func sortKeys(keys []Key) {
	lhs := make([]string, len(keys))
	for i := range keys {
		lhs[i] = joinRels(keys[i].LHS)
	}
	sort.Sort(&keySorter{keys: keys, lhs: lhs})
}

// keySorter: see redundancySorter for why the LHS key is precomputed.
type keySorter struct {
	keys []Key
	lhs  []string
}

func (s *keySorter) Len() int { return len(s.keys) }
func (s *keySorter) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.lhs[i], s.lhs[j] = s.lhs[j], s.lhs[i]
}
func (s *keySorter) Less(i, j int) bool {
	if s.keys[i].Class != s.keys[j].Class {
		return s.keys[i].Class < s.keys[j].Class
	}
	return s.lhs[i] < s.lhs[j]
}

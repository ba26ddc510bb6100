package core

import (
	"slices"

	"discoverxfd/internal/partition"
)

// Approximate XML FDs (extension; TANE's g3 measure lifted to tuple
// classes). An FD holds approximately with error e when removing an
// e-fraction of the class's tuples makes it hold exactly. Casually
// designed data — the paper's motivating scenario — is frequently
// dirty, and a constraint violated by a handful of typos still
// indicates redundancy worth refining; Options.ApproxError turns on
// their discovery alongside the exact ones.
//
// Approximate discovery is intra-relation: partition targets carry
// hard inequalities, which have no natural weighted analogue, so
// approximate inter-relation FDs are out of scope (as they are in
// TANE itself, which is single-relation).

// g3Error computes the minimum number of tuples that must be removed
// from the relation so that LHS → rhs holds exactly: for each Π_LHS
// group, all but the largest Π_{LHS∪rhs} subgroup must go.
// allIDs are the group ids of Π_{LHS∪rhs}; stripped singletons are
// their own subgroups of size one.
//
// This is the map-based variant the naive engine keeps as the
// pre-fast-path baseline; the fast engine uses g3ErrorDense, which
// exploits the density of group ids. The differential test pins both
// to the same approximate-FD output.
func g3Error(plhs *partition.Partition, allIDs []int32) int {
	removals := 0
	counts := make(map[int32]int)
	for i := range plhs.Size() {
		g := plhs.Group(i)
		clear(counts)
		max := 1 // a stripped singleton subgroup always exists as a floor
		for _, t := range g {
			id := allIDs[t]
			if id < 0 {
				continue // its own subgroup of size one
			}
			counts[id]++
			if counts[id] > max {
				max = counts[id]
			}
		}
		removals += len(g) - max
	}
	return removals
}

// g3ErrorDense is g3Error on a dense counts buffer instead of a map:
// group ids of Π_{LHS∪rhs} are dense in [0, |Π_{LHS∪rhs}|), so
// subgroup sizes live in a slice indexed by id, reset by a second
// sweep of the same rows. counts must have len ≥ the number of groups
// behind allIDs and be all-zero; it is returned all-zero. O(‖Π_LHS‖)
// per call with no per-group allocation — the approximate pass is the
// hottest consumer of cached partitions, and this removes the map
// hashing that dominated its profile.
//
// limit short-circuits the scan: removals only grow, and the caller
// discards any edge over its error budget, so once the running total
// exceeds limit the exact value no longer matters and a value > limit
// is returned immediately (counts are reset group by group, so an
// early return leaves the buffer zeroed). Most candidate edges are
// far over budget, making this the common exit.
func g3ErrorDense(plhs *partition.Partition, allIDs []int32, counts []int32, limit int) int {
	removals := 0
	for i := range plhs.Size() {
		g := plhs.Group(i)
		max := int32(1) // a stripped singleton subgroup always exists as a floor
		for _, t := range g {
			if id := allIDs[t]; id >= 0 {
				counts[id]++
				if counts[id] > max {
					max = counts[id]
				}
			}
		}
		for _, t := range g {
			if id := allIDs[t]; id >= 0 {
				counts[id] = 0
			}
		}
		removals += len(g) - int(max)
		if removals > limit {
			return removals
		}
	}
	return removals
}

// discoverApprox scans the failed edges of a finished lattice run and
// collects the approximate FDs within the error budget. It reuses the
// cached partitions; edges pruned by rule 1 against *exact* FDs are
// implied approximately as well (weakening the LHS can only lower the
// error), so the traversal's candidate structure carries over.
func (lr *latticeRun) discoverApprox(maxErr float64) []FD {
	if maxErr <= 0 {
		return nil
	}
	n := lr.rel.NRows()
	if n < 2 {
		return nil
	}
	budget := int(maxErr * float64(n))
	if budget < 1 {
		return nil
	}
	exact := make(map[edge]bool, len(lr.fds))
	for _, e := range lr.fds {
		exact[e] = true
	}
	var out []FD
	var counts []int32 // g3ErrorDense buffer, grown to the largest group count
	seen := make(map[edge]bool)
	// Walk the cached attribute sets in canonical order: the edges are
	// deduplicated by `seen`, so iteration order decides which FDs this
	// relation emits first — map order here would leak into the
	// pre-sort Result assembly and the golden reports.
	cached := make([]AttrSet, 0, len(lr.pc.parts))
	for a := range lr.pc.parts {
		cached = append(cached, a)
	}
	slices.Sort(cached)
	for _, a := range cached {
		if a == 0 {
			continue
		}
		pa := lr.pc.parts[a]
		for _, i := range a.Attrs() {
			al := a.Without(i)
			pal, ok := lr.pc.parts[al]
			if !ok {
				continue
			}
			e := edge{lhs: al, rhs: i}
			if exact[e] || seen[e] {
				continue
			}
			seen[e] = true
			if pal.Error() == pa.Error() {
				continue // exact (found via another traversal path)
			}
			var removals int
			if lr.opts.NaivePartitions {
				removals = g3Error(pal, lr.groupIDs(a))
			} else {
				if pa.Size() > len(counts) {
					counts = make([]int32, pa.Size())
				}
				removals = g3ErrorDense(pal, lr.groupIDs(a), counts, budget)
			}
			if removals <= budget {
				fd := intraFD(lr.rel, e)
				fd.Approximate = true
				fd.Error = float64(removals) / float64(n)
				out = append(out, fd)
			}
		}
	}
	return out
}

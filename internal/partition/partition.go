// Package partition implements attribute partitions in their striped
// (stripped) form, the core data structure of the paper's
// partition-based discovery algorithms (Section 4.2, following TANE).
//
// An attribute partition Π_X of an attribute set X over a relation
// groups tuples that share the same values at X. The striped form
// drops singleton groups, which loses no information for refinement
// tests: Π_X ⪯ Π_Y (refinement) holds iff Π_{X∪Y} = Π_X (Lemma 2),
// and with striped partitions that equality can be decided by
// comparing the error measure e(Π) = ‖Π‖ − |Π| (the number of tuples
// in non-singleton groups minus the number of such groups).
package partition

import "slices"

// Partition is a striped attribute partition: only groups with two or
// more tuples are stored. Tuples are identified by their row index in
// the underlying relation.
type Partition struct {
	// Groups holds the non-singleton equivalence classes. Row indices
	// within a group are ascending; groups appear in order of their
	// smallest row.
	Groups [][]int32
	// NRows is the number of tuples in the relation the partition is
	// over (including tuples in dropped singleton groups).
	NRows int
}

// FromCodes builds the partition of a single column: rows with equal
// codes form a group. Codes are arbitrary; in this system missing
// values carry a unique negative code per row, which realizes the
// strong-satisfaction null semantics (nulls differ from everything,
// including each other) by making null rows singletons.
func FromCodes(codes []int64) *Partition {
	first := make(map[int64]int32, len(codes))
	groupOf := make(map[int64]int, len(codes))
	var groups [][]int32
	for i, c := range codes {
		if j, ok := groupOf[c]; ok {
			groups[j] = append(groups[j], int32(i))
			continue
		}
		if f, ok := first[c]; ok {
			groupOf[c] = len(groups)
			groups = append(groups, []int32{f, int32(i)})
			continue
		}
		first[c] = int32(i)
	}
	// Groups were appended in order of their *second* occurrence;
	// normalize to order of smallest row for determinism.
	sortGroups(groups)
	return &Partition{Groups: groups, NRows: len(codes)}
}

func sortGroups(groups [][]int32) {
	// Insertion sort for small counts (usually nearly ordered);
	// comparison sort beyond, to avoid quadratic behaviour on
	// partitions with thousands of groups.
	if len(groups) > 32 {
		// Smallest rows are unique across groups, so the unstable sort
		// is deterministic; SortFunc avoids sort.Slice's reflection.
		slices.SortFunc(groups, func(a, b []int32) int { return int(a[0]) - int(b[0]) })
		return
	}
	for i := 1; i < len(groups); i++ {
		g := groups[i]
		j := i - 1
		for j >= 0 && groups[j][0] > g[0] {
			groups[j+1] = groups[j]
			j--
		}
		groups[j+1] = g
	}
}

// Single returns the partition of the empty attribute set Π_∅: one
// group containing every row (dropped if the relation has fewer than
// two rows).
func Single(nRows int) *Partition {
	if nRows < 2 {
		return &Partition{NRows: nRows}
	}
	g := make([]int32, nRows)
	for i := range g {
		g[i] = int32(i)
	}
	return &Partition{Groups: [][]int32{g}, NRows: nRows}
}

// Size returns the number of stored (non-singleton) groups.
func (p *Partition) Size() int { return len(p.Groups) }

// Card returns ‖Π‖, the number of tuples in stored groups.
func (p *Partition) Card() int {
	n := 0
	for _, g := range p.Groups {
		n += len(g)
	}
	return n
}

// Error returns e(Π) = ‖Π‖ − |Π|, the number of tuples that would
// have to be removed to make the attribute set a key. For striped
// partitions, Π_X = Π_{X∪A} iff e(Π_X) == e(Π_{X∪A}) (since the
// product always refines), which is the FD satisfaction test of
// Lemma 2.
func (p *Partition) Error() int { return p.Card() - len(p.Groups) }

// IsKey reports whether every group is a singleton, i.e. the
// attribute set uniquely identifies each tuple (Figure 8, line 11).
func (p *Partition) IsKey() bool { return len(p.Groups) == 0 }

// MaxGroupSize returns the size of the largest group (0 if none).
func (p *Partition) MaxGroupSize() int {
	m := 0
	for _, g := range p.Groups {
		if len(g) > m {
			m = len(g)
		}
	}
	return m
}

// Scratch is reusable working memory for Product. One Scratch may be
// reused across many Product calls over the same relation; it is not
// safe for concurrent use.
type Scratch struct {
	t []int32 // row -> group index in the left operand, -1 if singleton
	s [][]int32
}

// NewScratch allocates scratch space for relations with nRows tuples.
func NewScratch(nRows int) *Scratch {
	t := make([]int32, nRows)
	for i := range t {
		t[i] = -1
	}
	return &Scratch{t: t}
}

// Product computes the striped partition Π_{X∪Y} from Π_X (receiver)
// and Π_Y using the standard TANE stripped-product algorithm, linear
// in ‖Π_X‖ + ‖Π_Y‖.
func (p *Partition) Product(q *Partition, sc *Scratch) *Partition {
	if p.NRows != q.NRows {
		panic("partition: product of partitions over different relations")
	}
	if sc == nil || len(sc.t) < p.NRows {
		sc = NewScratch(p.NRows)
	}
	t := sc.t
	if cap(sc.s) < len(p.Groups) {
		sc.s = make([][]int32, len(p.Groups))
	}
	s := sc.s[:len(p.Groups)]
	for i := range s {
		s[i] = s[i][:0]
	}
	for i, g := range p.Groups {
		for _, row := range g {
			t[row] = int32(i)
		}
	}
	// All output groups share one backing array: the product's total
	// membership is bounded by min(‖p‖, ‖q‖), so a single allocation
	// replaces one per group and relieves the garbage collector on
	// lattice-heavy workloads.
	backing := make([]int32, 0, min(p.Card(), q.Card()))
	var out [][]int32
	for _, g := range q.Groups {
		for _, row := range g {
			if gi := t[row]; gi >= 0 {
				s[gi] = append(s[gi], row)
			}
		}
		for _, row := range g {
			gi := t[row]
			if gi < 0 {
				continue
			}
			if len(s[gi]) >= 2 {
				start := len(backing)
				backing = append(backing, s[gi]...)
				out = append(out, backing[start:len(backing):len(backing)])
			}
			s[gi] = s[gi][:0]
		}
	}
	for _, g := range p.Groups {
		for _, row := range g {
			t[row] = -1
		}
	}
	sortGroups(out)
	return &Partition{Groups: out, NRows: p.NRows}
}

// GroupIDs returns a row→group lookup: ids[row] is the index of the
// group containing the row, or -1 for rows in (dropped) singleton
// groups. Two rows are separated by the partition iff their ids
// differ or either is -1.
func (p *Partition) GroupIDs() []int32 {
	ids := make([]int32, p.NRows)
	for i := range ids {
		ids[i] = -1
	}
	for gi, g := range p.Groups {
		for _, row := range g {
			ids[row] = int32(gi)
		}
	}
	return ids
}

// Refines reports whether p refines q: whenever two tuples share a
// group in p they share a group in q (Lemma 1). Implemented via
// group-id lookup; O(‖p‖ + ‖q‖ + n).
func (p *Partition) Refines(q *Partition) bool {
	if p.NRows != q.NRows {
		return false
	}
	ids := q.GroupIDs()
	for _, g := range p.Groups {
		first := ids[g[0]]
		if first < 0 {
			return false
		}
		for _, row := range g[1:] {
			if ids[row] != first {
				return false
			}
		}
	}
	return true
}

// Equal reports whether two striped partitions contain the same
// groups (group and row order insensitive).
func (p *Partition) Equal(q *Partition) bool {
	if p.NRows != q.NRows || len(p.Groups) != len(q.Groups) || p.Card() != q.Card() {
		return false
	}
	return p.Refines(q) && q.Refines(p)
}

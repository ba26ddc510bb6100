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
//
// The groups are stored flat: rows holds every stored group back to
// back, and group i is rows[starts[i]:starts[i+1]] (starts carries a
// closing entry len(rows); both are nil when no group is stored). Row
// indices within a group are ascending. The order of the groups is
// unspecified: a partition is a set of equivalence classes, and no
// consumer may rely on which group comes first. Neither array holds a
// pointer, so the garbage collector never scans a partition's
// contents, and the counts below are O(1).
type Partition struct {
	rows   []int32
	starts []int32
	// NRows is the number of tuples in the relation the partition is
	// over (including tuples in dropped singleton groups).
	NRows int
}

// FromCodes builds the partition of a single column: rows with equal
// codes form a group. Codes are arbitrary; in this system missing
// values carry a unique negative code per row, which realizes the
// strong-satisfaction null semantics (nulls differ from everything,
// including each other) by making null rows singletons. Groups come
// out in order of their second row.
func FromCodes(codes []int64) *Partition {
	first := make(map[int64]int32, len(codes))
	groupOf := make(map[int64]int, len(codes))
	var groups [][]int32
	total := 0
	for i, c := range codes {
		if j, ok := groupOf[c]; ok {
			groups[j] = append(groups[j], int32(i))
			total++
			continue
		}
		if f, ok := first[c]; ok {
			groupOf[c] = len(groups)
			groups = append(groups, []int32{f, int32(i)})
			total += 2
			continue
		}
		first[c] = int32(i)
	}
	if len(groups) == 0 {
		return &Partition{NRows: len(codes)}
	}
	p := &Partition{rows: make([]int32, 0, total), starts: make([]int32, 0, len(groups)+1), NRows: len(codes)}
	for _, g := range groups {
		p.starts = append(p.starts, int32(len(p.rows)))
		p.rows = append(p.rows, g...)
	}
	p.starts = append(p.starts, int32(total))
	return p
}

// Single returns the partition of the empty attribute set Π_∅: one
// group containing every row (dropped if the relation has fewer than
// two rows).
func Single(nRows int) *Partition {
	if nRows < 2 {
		return &Partition{NRows: nRows}
	}
	rows := make([]int32, nRows)
	for i := range rows {
		rows[i] = int32(i)
	}
	return &Partition{rows: rows, starts: []int32{0, int32(nRows)}, NRows: nRows}
}

// Size returns the number of stored (non-singleton) groups.
func (p *Partition) Size() int { return max(len(p.starts)-1, 0) }

// Group returns the rows of stored group i, 0 ≤ i < Size(), in
// ascending order. The slice is a read-only view into the partition,
// clipped to its length so an append cannot reach the next group.
func (p *Partition) Group(i int) []int32 {
	lo, hi := p.starts[i], p.starts[i+1]
	return p.rows[lo:hi:hi]
}

// Card returns ‖Π‖, the number of tuples in stored groups.
func (p *Partition) Card() int { return len(p.rows) }

// Error returns e(Π) = ‖Π‖ − |Π|, the number of tuples that would
// have to be removed to make the attribute set a key. For striped
// partitions, Π_X = Π_{X∪A} iff e(Π_X) == e(Π_{X∪A}) (since the
// product always refines), which is the FD satisfaction test of
// Lemma 2.
func (p *Partition) Error() int { return p.Card() - p.Size() }

// IsKey reports whether every group is a singleton, i.e. the
// attribute set uniquely identifies each tuple (Figure 8, line 11).
func (p *Partition) IsKey() bool { return len(p.rows) == 0 }

// Scratch is reusable working memory for Product. One Scratch may be
// reused across many Product calls over the same relation; it is not
// safe for concurrent use.
type Scratch struct {
	// t is indexed by the right operand's group id while a group is
	// split (a count, then a negative write cursor); it is all zero
	// between calls.
	t       []int32
	touched []int32 // ids met in the group being split, in order of first occurrence
	rows    []int32 // staged output rows
	starts  []int32 // staged output group offsets
}

// NewScratch allocates scratch space for relations with nRows tuples.
func NewScratch(nRows int) *Scratch {
	return &Scratch{t: make([]int32, nRows)}
}

// Product computes the striped partition Π_{X∪Y} from Π_X (receiver)
// and ids, the row→group lookup of Π_Y (see GroupIDs). Each group of
// Π_X is split by the ids of its rows, so the cost is O(‖Π_X‖),
// independent of ‖Π_Y‖. The parts come out in Π_X's group order and,
// within one group of Π_X, in order of first occurrence of their id.
// The output is staged in sc and copied once into arrays of exact
// size.
func (p *Partition) Product(ids []int32, sc *Scratch) *Partition {
	if len(ids) != p.NRows {
		panic("partition: product of partitions over different relations")
	}
	if sc == nil || len(sc.t) < p.NRows {
		sc = NewScratch(p.NRows)
	}
	t := sc.t
	staged := slices.Grow(sc.rows[:0], p.Card())[:p.Card()]
	starts := sc.starts[:0]
	end := int32(0)
	for i := range p.Size() {
		g := p.Group(i)
		touched := sc.touched[:0]
		for _, row := range g {
			if id := ids[row]; id >= 0 {
				if t[id] == 0 {
					touched = append(touched, id)
				}
				t[id]++
			}
		}
		sc.touched = touched
		first := len(starts)
		for _, id := range touched {
			n := t[id]
			if n < 2 {
				t[id] = 0 // a singleton part, stripped
				continue
			}
			starts = append(starts, end)
			t[id] = -end - 1
			end += n
		}
		if first == len(starts) {
			continue
		}
		for _, row := range g {
			if id := ids[row]; id >= 0 {
				if c := t[id]; c < 0 {
					staged[-c-1] = row
					t[id] = c - 1
				}
			}
		}
		for _, id := range touched {
			t[id] = 0
		}
	}
	sc.rows, sc.starts = staged, starts
	k := len(starts)
	if k == 0 {
		return &Partition{NRows: p.NRows}
	}
	out := &Partition{rows: make([]int32, end), starts: make([]int32, k+1), NRows: p.NRows}
	copy(out.rows, staged[:end])
	copy(out.starts, starts)
	out.starts[k] = end
	return out
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
	for gi := range p.Size() {
		for _, row := range p.Group(gi) {
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
	for i := range p.Size() {
		g := p.Group(i)
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
	if p.NRows != q.NRows || p.Size() != q.Size() || p.Card() != q.Card() {
		return false
	}
	return p.Refines(q) && q.Refines(p)
}

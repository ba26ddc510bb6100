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

import (
	"math"
	"slices"
)

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
	flat    *flatTables
}

// flatTables is the flat loop's working memory, allocated at the
// Scratch's full size the first time the Scratch runs that loop.
type flatTables struct {
	// slots is indexed by k = id+1. A slot holds the stamp of the last
	// group of Π_X that met id, and the position of id's first row in
	// that group. Each call stamps its groups epoch, epoch+1, …, so
	// older stamps are dead and the table is never reset between groups
	// or calls. Slot 0, where a stripped singleton of Π_Y lands, is
	// always stamped 0, which is never live.
	slots []flatSlot
	pos   []flatPos // by position in Π_X's rows
	epoch int32     // the stamp of group 0 in the next call
}

type flatSlot struct{ stamp, lead int32 }

// flatPos holds, for one position in Π_X's rows, the position of its
// part's first row (its leader) and, at a leader, the part's row count
// and then its write cursor. Before the first pass cur flags the
// positions that open a group.
type flatPos struct{ lead, cur int32 }

// NewScratch allocates scratch space for relations with nRows tuples.
func NewScratch(nRows int) *Scratch {
	return &Scratch{t: make([]int32, nRows)}
}

// flatMaxMean is the largest mean group size of Π_X, ‖Π_X‖/|Π_X|, at
// which Product runs the flat loop. Above it the grouped loop wins:
// its branches follow the groups, which are then long enough to be
// predicted (docs/INTERNALS.md §3 has the measurements).
const flatMaxMean = 6

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
	return p.product(ids, sc, p.Card() <= flatMaxMean*p.Size())
}

// product is Product with the loop chosen by the caller. Both loops
// stage the same arrays, element for element.
func (p *Partition) product(ids []int32, sc *Scratch, flat bool) *Partition {
	var end int32
	if flat {
		end = p.splitFlat(ids, sc)
	} else {
		end = p.splitGrouped(ids, sc)
	}
	k := len(sc.starts)
	if k == 0 {
		return &Partition{NRows: p.NRows}
	}
	out := &Partition{rows: make([]int32, end), starts: make([]int32, k+1), NRows: p.NRows}
	copy(out.rows, sc.rows[:end])
	copy(out.starts, sc.starts)
	out.starts[k] = end
	return out
}

// splitGrouped is the grouped loop. It splits one group of Π_X at a
// time: it counts the ids of the group's rows in sc.t, claims a range
// for every id seen at least twice, in order of first occurrence, and
// writes the rows into their ranges. It stages the parts in sc.rows,
// their offsets in sc.starts, and returns the number of staged rows.
func (p *Partition) splitGrouped(ids []int32, sc *Scratch) int32 {
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
	return end
}

// splitFlat is the flat loop, staging what splitGrouped stages. On
// groups of a handful of rows, splitGrouped's branches (the first
// sighting of an id, a part of one row, the end of a group) follow the
// data and mispredict. splitFlat makes three passes over all of Π_X's
// rows instead, computing every select as a mask, so its only branches
// are the loops' own and the bounds checks:
//
//  1. flatLeaders finds each position's leader, the position of the
//     first row of its part (its own position for a stripped
//     singleton of Π_Y), and counts the part's rows at the leader;
//  2. flatClaim, in position order, which is Π_X's group order with
//     first occurrence inside a group, claims a range for every leader
//     of two or more rows and points every other position at a dump
//     slot one past the staged rows;
//  3. flatScatter writes each row at its leader's cursor, advancing
//     the cursor unless it is the dump slot.
func (p *Partition) splitFlat(ids []int32, sc *Scratch) int32 {
	n := p.Card()
	if n == 0 {
		sc.starts = sc.starts[:0]
		return 0
	}
	f := sc.flat
	if f == nil {
		f = &flatTables{slots: make([]flatSlot, len(sc.t)+1), pos: make([]flatPos, len(sc.t)), epoch: 1}
		sc.flat = f
	}
	if int64(f.epoch)+int64(p.Size())+1 > math.MaxInt32 {
		clear(f.slots) // every stamp dead again
		f.epoch = 1
	}
	base := f.epoch
	f.epoch += int32(p.Size()) + 1

	pos := f.pos[:n]
	flatLeaders(p.rows, p.starts, ids, f.slots, pos, base)
	st := slices.Grow(sc.starts[:0], n/2+1)[:n/2+1]
	parts, end := flatClaim(pos, st)
	staged := slices.Grow(sc.rows[:0], n+1)[:n+1]
	flatScatter(p.rows, pos, staged)
	sc.rows, sc.starts = staged, st[:parts]
	return end
}

// flatLeaders is the flat loop's first pass; see splitFlat. Group i of
// Π_X is stamped base+i.
func flatLeaders(rows, starts, ids []int32, slots []flatSlot, pos []flatPos, base int32) {
	pos = pos[:len(rows)]
	clear(pos)
	for _, at := range starts[1 : len(starts)-1] {
		pos[at].cur = 1
	}
	stamp := base
	for j, row := range rows {
		at := int32(j)
		stamp += pos[j].cur // +1 where a group opens
		k := ids[row] + 1
		sl := &slots[k]
		// A slot's stamp is at most this group's, so fresh is -1
		// unless this group met k before.
		fresh := (sl.stamp - stamp) >> 31
		l := at&fresh | sl.lead&^fresh
		sl.stamp = stamp & (-k >> 31) // 0 in slot 0
		sl.lead = l
		pos[j].lead = l
		pos[j].cur = 0
		pos[l].cur++
	}
}

// flatClaim is the flat loop's second pass; see splitFlat. It writes
// the parts' offsets to st and returns their number and total rows.
func flatClaim(pos []flatPos, st []int32) (int, int32) {
	dump := int32(len(pos))
	parts, end := 0, int32(0)
	for j := range pos {
		c := pos[j].cur
		claim := (1 - c) >> 31 // -1 when the part has two or more rows
		st[parts] = end
		parts -= int(claim)
		pos[j].cur = end&claim | dump&^claim
		end += c & claim
	}
	return parts, end
}

// flatScatter is the flat loop's third pass; see splitFlat.
func flatScatter(rows []int32, pos []flatPos, staged []int32) {
	pos = pos[:len(rows)]
	dump := int32(len(rows))
	for j, row := range rows {
		l := pos[j].lead
		w := pos[l].cur
		staged[w] = row
		pos[l].cur = w - (w-dump)>>31 // +1 below the dump slot
	}
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

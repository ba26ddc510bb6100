package relation

// interner assigns dense per-column integer codes to leaf attribute
// values, hashing each distinct string once per relation: a single
// value→id map is shared by every leaf column of the relation, and
// per-column remap tables turn the relation-wide ids into per-column
// dense codes in [1, bound). Dense codes are what lets the partition
// engine build column partitions with counting buffers
// (partition.FromDense) instead of hash maps.
type interner struct {
	ids  map[string]int32 // value -> relation-wide id
	cols [][]int64        // per column: relation-wide id -> dense code (0 = unassigned)
	next []int64          // per column: next unassigned dense code
}

func newInterner(nCols int) *interner {
	in := &interner{
		ids:  make(map[string]int32),
		cols: make([][]int64, nCols),
		next: make([]int64, nCols),
	}
	for i := range in.next {
		in.next[i] = 1
	}
	return in
}

// code interns value and returns its dense code in column ai.
func (in *interner) code(ai int, v string) int64 {
	id, ok := in.ids[v]
	if !ok {
		id = int32(len(in.ids))
		in.ids[v] = id
	}
	col := in.cols[ai]
	if int(id) >= len(col) {
		// Grow geometrically: columns fill row by row, so a fixed
		// increment would reallocate every table every few values.
		col = append(col, make([]int64, int(id)+1-len(col))...)
		in.cols[ai] = col
	}
	if col[id] == 0 {
		col[id] = in.next[ai]
		in.next[ai]++
	}
	return col[id]
}

// bound returns the exclusive upper bound of column ai's dense codes.
func (in *interner) bound(ai int) int64 { return in.next[ai] }

package partition

// Patching is the incremental-update counterpart of the build paths in
// this package (Section 4.2's stripped partitions are what makes this
// cheap): when a handful of rows of a column change code, the new
// column partition is obtained by splicing the touched rows out of
// their old equivalence classes and re-merging them under their new
// codes, instead of rebuilding from all n rows. Groups the edit does
// not reach are copied over unchanged.

// Patch returns the partition of the updated column codes, given that
// the receiver is the partition of a previous version of the column
// in which every row listed in touched (and no other row below
// min(p.NRows, len(codes))) may have changed its code. Rows appended
// beyond p.NRows must be listed in touched; rows removed by
// truncating the column below p.NRows are dropped automatically.
//
// The result is a fresh immutable Partition equal to
// FromCodes(codes); groups that contain neither a touched row nor a
// row sharing a touched row's new code are copied unchanged from the
// receiver. Cost is O(n) for the single code scan and the copy — both
// have a trivial constant next to a hash build, which is where the
// incremental-update speedup comes from.
func (p *Partition) Patch(codes []int64, touched []int32) *Partition {
	n := len(codes)
	if len(touched) == 0 && n == p.NRows {
		return p
	}
	bound := n
	if p.NRows > bound {
		bound = p.NRows
	}
	affected := make([]bool, bound)
	// rebuild collects, per new code of a touched row, every row of the
	// updated column that carries the code; order holds first-touch
	// order so no map iteration reaches the output.
	rebuild := make(map[int64]int)
	var order [][]int32
	for _, r := range touched {
		if int(r) >= bound {
			continue
		}
		affected[r] = true
		if int(r) < n {
			if _, ok := rebuild[codes[r]]; !ok {
				rebuild[codes[r]] = len(order)
				order = append(order, nil)
			}
		}
	}
	if len(rebuild) > 0 {
		for i, c := range codes {
			if gi, ok := rebuild[c]; ok {
				order[gi] = append(order[gi], int32(i))
				affected[i] = true
			}
		}
	}
	// Carry the previous partition's groups over with the affected and
	// out-of-range rows spliced out (fromGroups drops a remainder of
	// fewer than two rows), then add the re-formed classes of the
	// touched rows' new codes. kept never outgrows its capacity, so the
	// group slices cut from it stay valid.
	groups := make([][]int32, 0, p.Size()+len(order))
	kept := make([]int32, 0, p.Card())
	for i := range p.Size() {
		start := len(kept)
		for _, row := range p.Group(i) {
			if int(row) < n && !affected[row] {
				kept = append(kept, row)
			}
		}
		groups = append(groups, kept[start:])
	}
	return fromGroups(append(groups, order...), n)
}

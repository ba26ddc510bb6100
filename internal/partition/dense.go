package partition

import "sync"

// FromDense builds the partition of a single column whose non-null
// codes are dense in [1, bound). It is the interned fast path of
// FromCodes: two counting passes over slice-indexed buffers replace
// the per-row hash-map lookups, which is where FromCodes spends its
// time on repeated-value columns. Codes < 1 (nulls carry a unique
// negative code per row) always form singletons and are skipped, and
// codes >= bound fall back to FromCodes — a dictionary bound that
// turned out wrong degrades to the slow path rather than corrupting
// the partition.
func FromDense(codes []int64, bound int64) *Partition {
	if bound <= 0 {
		return FromCodes(codes)
	}
	counts := getCounts(int(bound))
	defer putCounts(counts)
	for _, c := range codes {
		if c < 1 {
			continue
		}
		if c >= bound {
			return FromCodes(codes)
		}
		counts[c]++
	}

	// Lay every non-singleton group out in one flat array. next[c] is
	// one past the slot the code's next row goes to (offset by one so 0
	// keeps meaning "unclaimed"); ranges are claimed at each group's
	// first row, so groups come out in order of their smallest row.
	total, nGroups := 0, 0
	for _, n := range counts {
		if n >= 2 {
			total += int(n)
			nGroups++
		}
	}
	if total == 0 {
		return &Partition{NRows: len(codes)}
	}
	rows := make([]int32, total)
	starts := make([]int32, 0, nGroups+1)
	next := getCounts(int(bound))
	defer putCounts(next)
	claimed := int32(0)
	for row, c := range codes {
		if c < 1 || counts[c] < 2 {
			continue
		}
		if next[c] == 0 {
			starts = append(starts, claimed)
			next[c] = claimed + 1
			claimed += counts[c]
		}
		rows[next[c]-1] = int32(row)
		next[c]++
	}
	return &Partition{rows: rows, starts: append(starts, claimed), NRows: len(codes)}
}

// countsPool recycles the counting buffers of FromDense; dictionary
// bounds repeat across the columns of a relation, so buffers are
// almost always reusable at full size.
var countsPool = sync.Pool{}

func getCounts(n int) []int32 {
	if v := countsPool.Get(); v != nil {
		buf := *v.(*[]int32)
		if cap(buf) >= n {
			buf = buf[:n]
			for i := range buf {
				buf[i] = 0
			}
			return buf
		}
	}
	return make([]int32, n)
}

func putCounts(buf []int32) {
	buf = buf[:0]
	countsPool.Put(&buf)
}

// scratchPool recycles Product scratch space across discovery phases
// and goroutines. Scratches are keyed only by capacity: a scratch for
// a larger relation serves a smaller one.
var scratchPool = sync.Pool{}

// GetScratch returns a pooled Scratch usable for relations with at
// most nRows tuples, allocating one when the pool is empty or too
// small. Return it with PutScratch when done.
func GetScratch(nRows int) *Scratch {
	if v := scratchPool.Get(); v != nil {
		sc := v.(*Scratch)
		if len(sc.t) >= nRows {
			return sc
		}
	}
	return NewScratch(nRows)
}

// PutScratch returns a Scratch to the pool. The scratch must not be
// used after. It needs no reset: Product leaves the grouped loop's
// table zeroed and every stamp of the flat loop's tables dead.
func PutScratch(sc *Scratch) {
	if sc != nil {
		scratchPool.Put(sc)
	}
}

// MemBytes estimates the heap footprint of the partition: the two
// slice headers plus the row indices and group offsets. Used for cache
// accounting.
func (p *Partition) MemBytes() int64 {
	const sliceHeader = 24
	return 2*sliceHeader + 4*int64(len(p.rows)+len(p.starts))
}

package partition

import (
	"math/rand"
	"testing"
)

// patchRef applies the edits naively and rebuilds from scratch — the
// reference Patch must match.
func requirePatchEqual(t *testing.T, old []int64, p *Partition, codes []int64, touched []int32) {
	t.Helper()
	got := p.Patch(codes, touched)
	want := FromCodes(codes)
	if !got.Equal(want) {
		t.Fatalf("Patch mismatch\nold:     %v\nnew:     %v\ntouched: %v\ngot:     %v\nwant:    %v",
			old, codes, touched, groupsOf(got), groupsOf(want))
	}
	if got.NRows != len(codes) {
		t.Fatalf("Patch NRows = %d, want %d", got.NRows, len(codes))
	}
}

func TestPatchValueChanges(t *testing.T) {
	old := []int64{1, 2, 1, 3, 2, 1, 4}
	p := FromCodes(old)
	for _, tc := range []struct {
		name   string
		mutate func(c []int64) []int32
	}{
		{"join existing group", func(c []int64) []int32 { c[3] = 1; return []int32{3} }},
		{"leave group to singleton", func(c []int64) []int32 { c[0] = 9; return []int32{0} }},
		{"shrink group to singleton", func(c []int64) []int32 { c[1] = 9; return []int32{1} }},
		{"singleton joins singleton", func(c []int64) []int32 { c[6] = 3; return []int32{6} }},
		{"swap two groups", func(c []int64) []int32 { c[0], c[1] = 2, 1; return []int32{0, 1} }},
		{"null stays singleton", func(c []int64) []int32 { c[2] = -3; return []int32{2} }},
		{"no-op listed as touched", func(c []int64) []int32 { return []int32{4} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			codes := append([]int64(nil), old...)
			touched := tc.mutate(codes)
			requirePatchEqual(t, old, p, codes, touched)
		})
	}
}

func TestPatchResize(t *testing.T) {
	old := []int64{1, 2, 1, 3, 2, 1}
	p := FromCodes(old)

	// Append two rows, one joining a group, one fresh.
	grown := append(append([]int64(nil), old...), 2, 7)
	requirePatchEqual(t, old, p, grown, []int32{6, 7})

	// Swap-delete: remove row 1 by moving the last row into its slot
	// and truncating.
	shrunk := append([]int64(nil), old...)
	shrunk[1] = shrunk[5]
	shrunk = shrunk[:5]
	requirePatchEqual(t, old, p, shrunk, []int32{1})

	// Truncation only (delete the last row): nothing below the new
	// length is touched.
	requirePatchEqual(t, old, p, old[:5], nil)

	// Shrink to empty.
	requirePatchEqual(t, old, p, nil, nil)
}

func TestPatchNoTouchSharesGroups(t *testing.T) {
	old := []int64{1, 1, 2, 2, 3}
	p := FromCodes(old)
	if got := p.Patch(old, nil); got != p {
		t.Fatalf("Patch with no edits should return the receiver")
	}
	// A disjoint edit keeps both untouched groups.
	codes := append([]int64(nil), old...)
	codes[4] = 9
	requirePatchEqual(t, old, p, codes, []int32{4})
}

// TestPatchSpliceIntoEmpty grows a partition from zero rows: the
// degenerate base every fresh document update starts from.
func TestPatchSpliceIntoEmpty(t *testing.T) {
	p := FromCodes(nil)
	if p.NRows != 0 {
		t.Fatalf("empty partition NRows = %d", p.NRows)
	}
	// Splice a first batch of rows into the empty partition.
	codes := []int64{5, 5, 7}
	requirePatchEqual(t, nil, p, codes, []int32{0, 1, 2})

	// And the no-op splice: empty in, empty out, receiver shared.
	if got := p.Patch(nil, nil); got != p {
		t.Fatal("empty-to-empty patch should return the receiver")
	}
}

// TestPatchEmptiesClass drives every member out of one equivalence
// class in a single splice, so the class must vanish from the result
// (a class with zero rows would corrupt group bookkeeping downstream).
func TestPatchEmptiesClass(t *testing.T) {
	old := []int64{1, 1, 2, 2, 2, 3, 3}
	p := FromCodes(old)

	// Move both members of class 1 into class 3: class 1 is emptied.
	codes := append([]int64(nil), old...)
	codes[0], codes[1] = 3, 3
	requirePatchEqual(t, old, p, codes, []int32{0, 1})
	got := p.Patch(codes, []int32{0, 1})
	if got.Size() != 2 {
		t.Fatalf("emptied class still present: groups = %v", groupsOf(got))
	}

	// Empty a class by deletion: truncate away the whole tail class.
	requirePatchEqual(t, old, p, old[:5], nil)
	if got := p.Patch(old[:5], nil); got.Size() != 2 {
		t.Fatalf("truncated class still present: groups = %v", groupsOf(got))
	}

	// Combined: splice out the middle class via swap-deletes, emptying
	// it while rows move under the new length.
	shrunk := append([]int64(nil), old...)
	shrunk[2], shrunk[3] = shrunk[6], shrunk[5] // move tail class 3 rows down
	shrunk = shrunk[:5]                         // rows {1,1,3,3,2}... class 2 shrinks to one row
	requirePatchEqual(t, old, p, shrunk, []int32{2, 3})
}

// TestPatchAfterResize patches immediately on top of a resized
// partition — the differential path must keep composing after a
// length change, not just from a cold FromCodes base.
func TestPatchAfterResize(t *testing.T) {
	base := []int64{1, 2, 1}
	p := FromCodes(base)

	grown := []int64{1, 2, 1, 2, 4}
	p2 := p.Patch(grown, []int32{3, 4})
	requirePatchEqual(t, base, p, grown, []int32{3, 4})

	// Value change right after the append, against the patched result.
	changed := append([]int64(nil), grown...)
	changed[0] = 4
	requirePatchEqual(t, grown, p2, changed, []int32{0})

	// Shrink right after the append.
	requirePatchEqual(t, grown, p2, grown[:2], nil)

	// And a splice after a shrink.
	p3 := p2.Patch(grown[:2], nil)
	regrown := []int64{1, 2, 9, 9}
	requirePatchEqual(t, grown[:2], p3, regrown, []int32{2, 3})
}

// TestPatchChainMatchesColdRebuild runs a deterministic multi-step
// update chain differentially and checks every intermediate (and the
// final state) against a cold FromCodes rebuild — the incremental
// discovery invariant in miniature.
func TestPatchChainMatchesColdRebuild(t *testing.T) {
	steps := [][]struct {
		row  int32
		code int64
	}{
		{{0, 2}},                 // merge into class 2
		{{3, 9}, {4, 9}},         // two rows leave for a fresh class
		{{1, -2}},                // a value goes null (singleton)
		{{2, 7}, {0, 7}, {5, 7}}, // build a new class from three others
	}
	codes := []int64{1, 2, 1, 3, 3, 2}
	p := FromCodes(codes)
	for i, step := range steps {
		next := append([]int64(nil), codes...)
		var touched []int32
		for _, e := range step {
			next[e.row] = e.code
			touched = append(touched, e.row)
		}
		requirePatchEqual(t, codes, p, next, touched)
		p = p.Patch(next, touched)
		cold := FromCodes(next)
		if !p.Equal(cold) {
			t.Fatalf("step %d: differential state diverged from cold rebuild:\ngot  %v\nwant %v",
				i, groupsOf(p), groupsOf(cold))
		}
		codes = next
	}
}

// TestPatchRandomized drives long random edit sequences — value
// changes, appends, swap-deletes — through Patch, checking the result
// against a from-scratch rebuild at every step.
func TestPatchRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(60)
		domain := int64(1 + rng.Intn(8))
		codes := make([]int64, n)
		for i := range codes {
			if rng.Intn(10) == 0 {
				codes[i] = -int64(i) - 1 // null
			} else {
				codes[i] = 1 + rng.Int63n(domain)
			}
		}
		p := FromCodes(codes)
		for step := 0; step < 20; step++ {
			old := append([]int64(nil), codes...)
			var touched []int32
			switch k := rng.Intn(3); {
			case k == 0 && len(codes) > 0: // value changes
				edits := 1 + rng.Intn(3)
				for e := 0; e < edits; e++ {
					i := rng.Intn(len(codes))
					codes[i] = 1 + rng.Int63n(domain)
					touched = append(touched, int32(i))
				}
			case k == 1: // append
				codes = append(codes, 1+rng.Int63n(domain))
				touched = append(touched, int32(len(codes)-1))
			case k == 2 && len(codes) > 0: // swap-delete
				i := rng.Intn(len(codes))
				last := len(codes) - 1
				if i != last {
					c := codes[last]
					if c < 0 {
						c = -int64(i) - 1 // nulls renumber to their new row
					}
					codes[i] = c
					touched = append(touched, int32(i))
				}
				codes = codes[:last]
			}
			requirePatchEqual(t, old, p, codes, touched)
			p = p.Patch(codes, touched)
		}
	}
}

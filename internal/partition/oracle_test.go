package partition

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// productOracle is the stripped product Partition.Product ran before
// partitions were stored flat, kept verbatim over [][]int32 groups as
// the differential oracle: it scans every group of Π_Y against a
// row→group table of Π_X and sorts the output groups by smallest row.
// The flat Product must return the same groups; their order is
// unspecified, so the comparison is over canonical forms.
func productOracle(p, q [][]int32, nRows int) [][]int32 {
	t := make([]int32, nRows) // row -> group index in the left operand, -1 if singleton
	for i := range t {
		t[i] = -1
	}
	s := make([][]int32, len(p))
	for i, g := range p {
		for _, row := range g {
			t[row] = int32(i)
		}
	}
	// All output groups share one backing array: the product's total
	// membership is bounded by min(‖p‖, ‖q‖), so a single allocation
	// replaces one per group and relieves the garbage collector on
	// lattice-heavy workloads.
	backing := make([]int32, 0, min(oracleCard(p), oracleCard(q)))
	var out [][]int32
	for _, g := range q {
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
	sortGroups(out)
	return out
}

// sortGroups puts groups in canonical order, by smallest row (unique
// across groups, so the order is total).
func sortGroups(groups [][]int32) {
	slices.SortFunc(groups, func(a, b []int32) int { return int(a[0]) - int(b[0]) })
}

// oracleCard is Card over [][]int32 groups.
func oracleCard(groups [][]int32) int {
	n := 0
	for _, g := range groups {
		n += len(g)
	}
	return n
}

// groupsOf lists p's groups in stored order (nil when p stores none).
func groupsOf(p *Partition) [][]int32 {
	var out [][]int32
	for i := range p.Size() {
		out = append(out, p.Group(i))
	}
	return out
}

// canonical lists p's groups in canonical order, by smallest row,
// failing t unless the rows of every group are strictly ascending, the
// one order every constructor still guarantees.
func canonical(t *testing.T, p *Partition) [][]int32 {
	t.Helper()
	groups := groupsOf(p)
	for _, g := range groups {
		for i := 1; i < len(g); i++ {
			if g[i-1] >= g[i] {
				t.Fatalf("group rows not ascending: %v", g)
			}
		}
	}
	sortGroups(groups)
	return groups
}

// oracleColumn draws a column of n codes from [1, domain], each row
// null (a row-unique negative code) with probability nullPct/100.
func oracleColumn(r *rand.Rand, n, domain, nullPct int) []int64 {
	codes := make([]int64, n)
	for i := range codes {
		if r.Intn(100) < nullPct {
			codes[i] = -1 - int64(i)
		} else {
			codes[i] = 1 + int64(r.Intn(domain))
		}
	}
	return codes
}

// checkProductMatchesOracle builds m random columns over n rows, each
// column's partition once by FromCodes and once by FromDense, and
// requires both to store the same groups. It then folds the columns,
// in a random order, through Product with one reused scratch and
// through productOracle, and requires the same groups after every
// step. Groups are compared in canonical order, and every group's rows
// must be ascending.
func checkProductMatchesOracle(t *testing.T, seed int64, n, m, domain, nullPct int) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	cols := make([]*Partition, m)
	for a := range cols {
		codes := oracleColumn(r, n, domain, nullPct)
		p := FromCodes(codes)
		want := canonical(t, p)
		if got := canonical(t, FromDense(codes, int64(domain)+1)); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d column %d: FromDense groups %v, FromCodes %v", seed, a, got, want)
		}
		cols[a] = p
	}
	if m == 0 {
		return
	}
	sc := NewScratch(n + r.Intn(70))
	order := r.Perm(m)
	p := cols[order[0]]
	want := canonical(t, p)
	for _, a := range order[1:] {
		p = p.Product(cols[a].GroupIDs(), sc)
		want = productOracle(want, groupsOf(cols[a]), n)
		if got := canonical(t, p); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: after column %d of %v:\ngot  %v\nwant %v", seed, a, order, got, want)
		}
		if p.NRows != n {
			t.Fatalf("seed %d: product NRows = %d, want %d", seed, p.NRows, n)
		}
	}
}

// FuzzProductMatchesOracle holds the flat Product to the pre-flat
// algorithm group for group, with rows ascending in every group, along
// with the two column builders the fold starts from, FromCodes and
// FromDense.
func FuzzProductMatchesOracle(f *testing.F) {
	f.Add(int64(1), uint16(40), uint8(4), uint8(3), uint8(10))
	f.Add(int64(2), uint16(300), uint8(6), uint8(2), uint8(0))
	f.Add(int64(3), uint16(200), uint8(3), uint8(20), uint8(30))
	f.Add(int64(4), uint16(2), uint8(2), uint8(1), uint8(0))
	f.Add(int64(5), uint16(0), uint8(2), uint8(1), uint8(0))
	f.Add(int64(6), uint16(1000), uint8(5), uint8(5), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, m, domain, nullPct uint8) {
		checkProductMatchesOracle(t, seed, int(n)%2048, int(m)%8, 1+int(domain)%32, int(nullPct)%101)
	})
}

// TestProductMatchesOracle runs the fuzz check over a fixed spread of
// shapes, so a plain test run covers products of many groups.
func TestProductMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		checkProductMatchesOracle(t, seed, r.Intn(600), 2+r.Intn(5), 1+r.Intn(12), r.Intn(40))
	}
}

// TestProductAllocs pins Product's allocations to a constant — the
// result struct and its two arrays — whatever the number of output
// groups, once the scratch has grown to the relation.
func TestProductAllocs(t *testing.T) {
	const n = 4000
	allocs := func(dx, dy int) (float64, int) {
		x, y := make([]int64, n), make([]int64, n)
		for i := range x {
			x[i] = int64(i % dx)
			y[i] = int64(i / dx % dy)
		}
		px, ids := FromCodes(x), FromCodes(y).GroupIDs()
		sc := NewScratch(n)
		groups := px.Product(ids, sc).Size()
		return testing.AllocsPerRun(20, func() { px.Product(ids, sc) }), groups
	}
	small, g1 := allocs(10, 10)
	large, g2 := allocs(40, 25)
	if g1 != 100 || g2 != 1000 {
		t.Fatalf("fixture drifted: %d and %d output groups, want 100 and 1000", g1, g2)
	}
	if small != large || small > 3 {
		t.Fatalf("Product allocates %.0f at %d groups and %.0f at %d; want one constant ≤ 3", small, g1, large, g2)
	}
}

package partition

import (
	"fmt"
	"math"
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

// checkProductMatchesOracle builds m random columns over n rows and
// folds them, in a random order, with one reused scratch (checkFold).
// It returns how many fold steps Product ran through each loop.
func checkProductMatchesOracle(t *testing.T, seed int64, n, m, domain, nullPct int) (flat, grouped int) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	codes := make([][]int64, m)
	for a := range codes {
		codes[a] = oracleColumn(r, n, domain, nullPct)
	}
	if m == 0 {
		return 0, 0
	}
	sc := NewScratch(n + r.Intn(70))
	return checkFold(t, fmt.Sprintf("seed %d", seed), codes, int64(domain)+1, r.Perm(m), sc)
}

// checkFold builds each column's partition once by FromCodes and once
// by FromDense (codes dense in [1, bound) or null) and requires both
// to store the same groups. It then folds the columns in the given
// order through Product on sc and through productOracle, and requires
// the same groups after every step, compared in canonical order with
// every group's rows ascending. Every step also runs through both
// loops (productBothLoops). It returns how many steps Product ran
// through each loop.
func checkFold(t *testing.T, what string, codes [][]int64, bound int64, order []int, sc *Scratch) (flat, grouped int) {
	t.Helper()
	cols := make([]*Partition, len(codes))
	for a, c := range codes {
		p := FromCodes(c)
		want := canonical(t, p)
		if got := canonical(t, FromDense(c, bound)); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s column %d: FromDense groups %v, FromCodes %v", what, a, got, want)
		}
		cols[a] = p
	}
	p := cols[order[0]]
	n := p.NRows
	want := canonical(t, p)
	for _, a := range order[1:] {
		var isFlat bool
		p, isFlat = productBothLoops(t, what, p, cols[a].GroupIDs(), sc)
		if isFlat {
			flat++
		} else {
			grouped++
		}
		want = productOracle(want, groupsOf(cols[a]), n)
		if got := canonical(t, p); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: after column %d of %v:\ngot  %v\nwant %v", what, a, order, got, want)
		}
		if p.NRows != n {
			t.Fatalf("%s: product NRows = %d, want %d", what, p.NRows, n)
		}
	}
	return flat, grouped
}

// productBothLoops multiplies p by ids on sc through the grouped loop,
// through the flat loop and through Product, and requires all three to
// return the same arrays element for element, each of exact size. It
// returns Product's result and whether Product took the flat loop.
func productBothLoops(t *testing.T, what string, p *Partition, ids []int32, sc *Scratch) (*Partition, bool) {
	t.Helper()
	grouped := p.product(ids, sc, false)
	flat := p.product(ids, sc, true)
	got := p.Product(ids, sc)
	for _, q := range []struct {
		loop string
		p    *Partition
	}{{"grouped", grouped}, {"flat", flat}, {"Product", got}} {
		if cap(q.p.rows) != len(q.p.rows) || cap(q.p.starts) != len(q.p.starts) {
			t.Fatalf("%s: %s loop's arrays are not of exact size: len %d cap %d, len %d cap %d",
				what, q.loop, len(q.p.rows), cap(q.p.rows), len(q.p.starts), cap(q.p.starts))
		}
		if !reflect.DeepEqual(q.p.rows, grouped.rows) || !reflect.DeepEqual(q.p.starts, grouped.starts) || q.p.NRows != grouped.NRows {
			t.Fatalf("%s: %s loop staged\nrows   %v\nstarts %v\ngrouped loop\nrows   %v\nstarts %v",
				what, q.loop, q.p.rows, q.p.starts, grouped.rows, grouped.starts)
		}
	}
	return got, p.Card() <= flatMaxMean*p.Size()
}

// FuzzProductMatchesOracle holds Product to the pre-flat algorithm
// group for group, with rows ascending in every group, and its two
// loops to each other array for array, along with the two column
// builders the fold starts from, FromCodes and FromDense.
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

// TestProductLoopsCrossThreshold folds columns whose products cross
// flatMaxMean both ways, so one fold, on one scratch, runs both loops.
// Over 1,200 rows and domain-6 columns, as in the wide_lattice
// benchmark, the groups average about 200, 33, 5.6 and 2.3 rows after
// one to four columns: the grouped loop splits the first two and the
// flat loop the others. The hand-built fold goes the other way: 300
// pairs and one group of 400 rows (a mean of 3.3) are split by a
// column that keeps only the big group, which the next column splits
// in the grouped loop.
func TestProductLoopsCrossThreshold(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, nullPct := range []int{0, 10} {
			flat, grouped := checkProductMatchesOracle(t, 1000*seed+int64(nullPct), 1200, 5, 6, nullPct)
			if flat == 0 || grouped == 0 {
				t.Fatalf("seed %d nulls %d%%: %d flat and %d grouped steps, want both", seed, nullPct, flat, grouped)
			}
		}
	}
	const n = 1000
	a, b, c := make([]int64, n), make([]int64, n), make([]int64, n)
	for i := range n {
		a[i], b[i], c[i] = 1, 1, 1+int64(i%2)
		if i >= 400 {
			a[i], b[i] = 2+int64(i-400)/2, int64(i)
		}
	}
	flat, grouped := checkFold(t, "pairs then one group", [][]int64{a, b, c}, n, []int{0, 1, 2}, NewScratch(n))
	if flat != 1 || grouped != 1 {
		t.Fatalf("pairs then one group: %d flat and %d grouped steps, want 1 and 1", flat, grouped)
	}
}

// TestProductFlatEpochWrap runs the flat loop on a scratch whose epoch
// wraps: stamps left by earlier calls must not read as live after the
// table restarts at epoch 1.
func TestProductFlatEpochWrap(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	const n = 400
	x := FromCodes(oracleColumn(r, n, 80, 10))
	if x.Card() > flatMaxMean*x.Size() {
		t.Fatalf("fixture drifted: mean group size %.1f takes the grouped loop", float64(x.Card())/float64(x.Size()))
	}
	sc := NewScratch(n)
	wrapped := false
	for step := range 12 {
		if step == 3 {
			sc.flat.epoch = math.MaxInt32 - int32(3*x.Size())
		}
		ids := FromCodes(oracleColumn(r, n, 3, 10)).GroupIDs()
		productBothLoops(t, fmt.Sprintf("step %d", step), x, ids, sc)
		wrapped = wrapped || (step >= 3 && sc.flat.epoch < math.MaxInt32/2)
	}
	if !wrapped {
		t.Fatal("the epoch never wrapped")
	}
}

// TestProductAllSingletonIDs multiplies by a Π_Y that stores no group,
// so every row keys slot 0 of the flat loop's table: every part is a
// stripped singleton and the product stores nothing.
func TestProductAllSingletonIDs(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	const n = 500
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = -1
	}
	sc := NewScratch(n)
	for _, domain := range []int{2, 100, 250} {
		x := FromCodes(oracleColumn(r, n, domain, 0))
		if got, _ := productBothLoops(t, fmt.Sprintf("domain %d", domain), x, ids, sc); got.Size() != 0 {
			t.Fatalf("domain %d: product by an all-singleton Π_Y stores %v", domain, groupsOf(got))
		}
	}
}

// TestProductAllocs pins Product's allocations to a constant — the
// result struct and its two arrays — whatever the number of output
// groups and whichever loop runs, once the scratch has grown to the
// relation (the flat loop's tables included).
func TestProductAllocs(t *testing.T) {
	const n = 4000
	allocs := func(dx, dy int) (float64, int, bool) {
		x, y := make([]int64, n), make([]int64, n)
		for i := range x {
			x[i] = int64(i % dx)
			y[i] = int64(i / dx % dy)
		}
		px, ids := FromCodes(x), FromCodes(y).GroupIDs()
		sc := NewScratch(n)
		groups := px.Product(ids, sc).Size()
		return testing.AllocsPerRun(20, func() { px.Product(ids, sc) }), groups, px.Card() <= flatMaxMean*px.Size()
	}
	small, g1, f1 := allocs(10, 10)
	large, g2, f2 := allocs(40, 25)
	pairs, g3, f3 := allocs(1600, 2) // groups of 2 or 3 rows, a mean of 2.5
	if g1 != 100 || g2 != 1000 || g3 != 800 || f1 || f2 || !f3 {
		t.Fatalf("fixture drifted: %d, %d and %d output groups, flat loop %v, %v, %v; want 100, 1000 and 800, only the last flat",
			g1, g2, g3, f1, f2, f3)
	}
	if small != large || small != pairs || small > 3 {
		t.Fatalf("Product allocates %.0f at %d groups, %.0f at %d and %.0f at %d in the flat loop; want one constant ≤ 3",
			small, g1, large, g2, pairs, g3)
	}
}

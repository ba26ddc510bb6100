package partition

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestFromCodesBasic(t *testing.T) {
	// codes: a a b a c c -> groups {0,1,3}, {4,5}; b is a singleton.
	p := FromCodes([]int64{1, 1, 2, 1, 3, 3})
	if p.NRows != 6 || p.Size() != 2 {
		t.Fatalf("NRows=%d Size=%d", p.NRows, p.Size())
	}
	want := [][]int32{{0, 1, 3}, {4, 5}}
	if got := groupsOf(p); !reflect.DeepEqual(got, want) {
		t.Fatalf("groups = %v, want %v", got, want)
	}
	if p.Card() != 5 || p.Error() != 3 || p.IsKey() {
		t.Fatalf("Card=%d Error=%d IsKey=%v", p.Card(), p.Error(), p.IsKey())
	}
}

func TestUniqueNegativesAreSingletons(t *testing.T) {
	// Unique negative codes realize strong-satisfaction nulls: every
	// null row is its own singleton and vanishes from the striped
	// partition.
	p := FromCodes([]int64{-1, -2, -3, 5, 5})
	if p.Size() != 1 || p.Group(0)[0] != 3 {
		t.Fatalf("nulls should strip away: %v", groupsOf(p))
	}
}

func TestKeyPartition(t *testing.T) {
	p := FromCodes([]int64{4, 2, 9, 7})
	if !p.IsKey() || p.Error() != 0 {
		t.Fatalf("all-distinct column should be a key partition")
	}
}

func TestSingle(t *testing.T) {
	p := Single(4)
	if p.Size() != 1 || p.Card() != 4 || p.Error() != 3 {
		t.Fatalf("Single(4) wrong: %+v", p)
	}
	if !Single(1).IsKey() || !Single(0).IsKey() {
		t.Fatal("Single of 0/1 rows should be a (vacuous) key")
	}
}

func TestProductMatchesDirectGrouping(t *testing.T) {
	a := []int64{1, 1, 2, 2, 1, 1}
	b := []int64{7, 8, 7, 7, 7, 8}
	pa, pb := FromCodes(a), FromCodes(b)
	prod := pa.Product(pb.GroupIDs(), NewScratch(6))
	// Direct grouping by the pair (a,b).
	pair := make([]int64, len(a))
	for i := range a {
		pair[i] = a[i]*100 + b[i]
	}
	want := FromCodes(pair)
	if !prod.Equal(want) {
		t.Fatalf("product %v != direct %v", groupsOf(prod), groupsOf(want))
	}
}

func TestRefines(t *testing.T) {
	fine := FromCodes([]int64{1, 1, 2, 2, 3, 3})
	coarse := FromCodes([]int64{1, 1, 1, 1, 2, 2})
	if !fine.Refines(coarse) {
		t.Fatal("fine should refine coarse")
	}
	if coarse.Refines(fine) {
		t.Fatal("coarse should not refine fine")
	}
	if !fine.Refines(fine) {
		t.Fatal("a partition refines itself")
	}
}

func TestGroupIDs(t *testing.T) {
	p := FromCodes([]int64{1, 1, 2, 3, 3})
	ids := p.GroupIDs()
	if ids[2] != -1 {
		t.Fatal("singleton rows should have id -1")
	}
	if ids[0] < 0 || ids[0] != ids[1] || ids[3] < 0 || ids[3] != ids[4] || ids[0] == ids[3] {
		t.Fatalf("ids %v do not name the groups {0,1} and {3,4}", ids)
	}
}

// randomCodes builds a random column with a small domain so groups
// are common.
func randomCodes(r *rand.Rand, n, domain int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(r.Intn(domain))
	}
	return out
}

// TestProductProperties property-checks the algebra the discovery
// algorithms rely on:
//  1. Π_X·Π_Y equals direct grouping by the value pair;
//  2. the product refines both operands;
//  3. e(Π_X) == e(Π_X·Π_Y) iff Π_X refines Π_Y (Lemma 2's FD test);
//  4. the product is commutative.
func TestProductProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(40)
		x := randomCodes(r, n, 1+r.Intn(6))
		y := randomCodes(r, n, 1+r.Intn(6))
		px, py := FromCodes(x), FromCodes(y)
		sc := NewScratch(n)
		prod := px.Product(py.GroupIDs(), sc)

		pair := make([]int64, n)
		for i := range pair {
			pair[i] = x[i]*1000 + y[i]
		}
		direct := FromCodes(pair)
		if !prod.Equal(direct) {
			return false
		}
		if !prod.Refines(px) || !prod.Refines(py) {
			return false
		}
		if (px.Error() == prod.Error()) != px.Refines(py) {
			return false
		}
		prod2 := py.Product(px.GroupIDs(), sc)
		return prod.Equal(prod2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestScratchReuse verifies that reusing one Scratch across many
// products does not corrupt results.
func TestScratchReuse(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	sc := NewScratch(50)
	for i := 0; i < 50; i++ {
		x := randomCodes(r, 50, 4)
		y := randomCodes(r, 50, 4)
		px, py := FromCodes(x), FromCodes(y)
		got := px.Product(py.GroupIDs(), sc)
		want := px.Product(py.GroupIDs(), NewScratch(50))
		if !got.Equal(want) {
			t.Fatalf("scratch reuse corrupted product at iteration %d", i)
		}
	}
}

func TestProductPanicsOnMismatchedRows(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched NRows")
		}
	}()
	FromCodes([]int64{1, 1}).Product(FromCodes([]int64{1, 1, 1}).GroupIDs(), nil)
}

func TestEqualEdgeCases(t *testing.T) {
	a := FromCodes([]int64{1, 1, 2})
	b := FromCodes([]int64{3, 3, 9})
	if !a.Equal(b) {
		t.Fatal("same grouping with different codes must be Equal")
	}
	c := FromCodes([]int64{1, 2, 2})
	if a.Equal(c) {
		t.Fatal("different groupings must not be Equal")
	}
}

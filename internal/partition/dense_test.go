package partition

import (
	"math/rand"
	"testing"
)

// denseCodes generates a random dense-coded column: codes in
// [1, bound), with nullEvery rows carrying a unique negative code.
func denseCodes(r *rand.Rand, n int, bound int64, nullEvery int) []int64 {
	codes := make([]int64, n)
	for i := range codes {
		if nullEvery > 0 && r.Intn(nullEvery) == 0 {
			codes[i] = -int64(i) - 1
			continue
		}
		codes[i] = 1 + r.Int63n(bound-1)
	}
	return codes
}

func TestFromDenseMatchesFromCodes(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	cases := []struct {
		n         int
		bound     int64
		nullEvery int
	}{
		{0, 2, 0}, {1, 2, 0}, {2, 2, 0}, {5, 2, 0},
		{100, 3, 0}, {100, 3, 4}, {1000, 50, 0}, {1000, 50, 7},
		{500, 500, 0}, // all-singleton likely
		{64, 2, 2},
	}
	for _, tc := range cases {
		for rep := 0; rep < 5; rep++ {
			codes := denseCodes(r, tc.n, tc.bound, tc.nullEvery)
			want := FromCodes(codes)
			got := FromDense(codes, tc.bound)
			if !got.Equal(want) {
				t.Fatalf("n=%d bound=%d: FromDense != FromCodes\n got: %v\nwant: %v",
					tc.n, tc.bound, groupsOf(got), groupsOf(want))
			}
			// Beyond set equality: rows ascend within every group of
			// both builders. Group order is unspecified.
			canonical(t, got)
			canonical(t, want)
		}
	}
}

func TestFromDenseOutOfBoundFallsBack(t *testing.T) {
	codes := []int64{1, 2, 1, 99, 99}
	got := FromDense(codes, 3) // 99 >= bound
	want := FromCodes(codes)
	if !got.Equal(want) {
		t.Fatalf("fallback mismatch: got %v want %v", groupsOf(got), groupsOf(want))
	}
	if got := FromDense(codes, 0); !got.Equal(want) {
		t.Fatalf("bound=0 fallback mismatch: got %v", groupsOf(got))
	}
}

func TestFromDenseAllNull(t *testing.T) {
	codes := []int64{-1, -2, -3}
	p := FromDense(codes, 10)
	if p.Size() != 0 || p.NRows != 3 {
		t.Fatalf("all-null column should have no groups: %+v", p)
	}
}

func TestScratchPoolReuse(t *testing.T) {
	sc := GetScratch(100)
	if len(sc.t) < 100 {
		t.Fatalf("scratch too small: %d", len(sc.t))
	}
	PutScratch(sc)
	sc2 := GetScratch(50)
	// Either a fresh or the pooled scratch; both must be usable.
	p := FromCodes([]int64{1, 1, 2, 2, 3})
	q := FromCodes([]int64{1, 2, 1, 2, 3})
	got := p.Product(q.GroupIDs(), sc2)
	want := p.Product(q.GroupIDs(), nil)
	if !got.Equal(want) {
		t.Fatalf("pooled scratch product mismatch: %v vs %v", groupsOf(got), groupsOf(want))
	}
	PutScratch(sc2)
	PutScratch(nil) // must not panic
}

func TestMemBytes(t *testing.T) {
	p := FromCodes([]int64{1, 1, 2, 2, 2})
	if p.MemBytes() <= 0 {
		t.Fatal("MemBytes should be positive for a non-empty partition")
	}
	empty := &Partition{NRows: 5}
	if empty.MemBytes() <= 0 {
		t.Fatal("MemBytes should count headers even when empty")
	}
}

func BenchmarkFromCodesRepeated(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	codes := denseCodes(r, 20000, 16, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FromCodes(codes)
	}
}

func BenchmarkFromDenseRepeated(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	codes := denseCodes(r, 20000, 16, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FromDense(codes, 16)
	}
}

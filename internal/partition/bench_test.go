package partition

import (
	"math/rand"
	"testing"
)

func benchCodes(n, domain int) []int64 {
	r := rand.New(rand.NewSource(1))
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(r.Intn(domain))
	}
	return out
}

func BenchmarkFromCodes(b *testing.B) {
	codes := benchCodes(10000, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FromCodes(codes)
	}
}

func BenchmarkProduct(b *testing.B) {
	pa := FromCodes(benchCodes(10000, 50))
	pb := FromCodes(benchCodes(10000, 50)).GroupIDs()
	sc := NewScratch(10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pa.Product(pb, sc)
	}
}

func BenchmarkProductSkewed(b *testing.B) {
	// One huge group against many small ones: the shape set
	// pseudo-attributes produce.
	pa := FromCodes(benchCodes(10000, 2))
	pb := FromCodes(benchCodes(10000, 500)).GroupIDs()
	sc := NewScratch(10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pa.Product(pb, sc)
	}
}

func BenchmarkGroupIDs(b *testing.B) {
	p := FromCodes(benchCodes(10000, 100))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.GroupIDs()
	}
}

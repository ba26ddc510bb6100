package partition

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
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

// rotatingOperands is one shape of BenchmarkProductRotating: distinct
// product operands, each a Π_X and the row→group ids of a Π_Y.
type rotatingOperands struct {
	name string
	xs   []*Partition
	ids  [][]int32
	rows int // ‖Π_X‖ summed over the operands
}

// rotatingShape builds 64 operands over n rows: Π_X is the product of
// depth random columns over domainX values, and Π_Y one more column
// over domainY values.
func rotatingShape(name string, n, depth, domainX, domainY int) rotatingOperands {
	const operands = 64
	r := rand.New(rand.NewSource(int64(n*depth + domainX)))
	column := func(domain int) *Partition {
		codes := make([]int64, n)
		for i := range codes {
			codes[i] = int64(r.Intn(domain))
		}
		return FromCodes(codes)
	}
	s := rotatingOperands{name: name}
	sc := NewScratch(n)
	for range operands {
		x := column(domainX)
		for range depth - 1 {
			x = x.Product(column(domainX).GroupIDs(), sc)
		}
		s.xs = append(s.xs, x)
		s.ids = append(s.ids, column(domainY).GroupIDs())
		s.rows += x.Card()
	}
	return s
}

// productSink keeps BenchmarkProductRotating's products live.
var productSink *Partition

// BenchmarkProductRotating times both product loops over 64 distinct
// operands per shape, taken in turn, so the branch predictor cannot
// learn one operand's groups the way it does when BenchmarkProduct
// repeats a single operand; the lattice multiplies a different operand
// every time. It reports ns per input row (‖Π_X‖) and the mean group
// size of Π_X; docs/INTERNALS.md §3 has the table that sets
// flatMaxMean.
func BenchmarkProductRotating(b *testing.B) {
	shapes := []rotatingOperands{
		rotatingShape("1200x2", 1200, 2, 6, 6),
		rotatingShape("1200x3", 1200, 3, 6, 6),
		rotatingShape("1200x4", 1200, 4, 6, 6),
		rotatingShape("1200x5", 1200, 5, 6, 6),
		rotatingShape("10000x200", 10000, 1, 50, 50),
		rotatingShape("10000x5000", 10000, 1, 2, 500),
	}
	for _, s := range shapes {
		groups := 0
		for _, x := range s.xs {
			groups += x.Size()
		}
		for _, flat := range []bool{false, true} {
			loop := "grouped"
			if flat {
				loop = "flat"
			}
			b.Run(fmt.Sprintf("%s/%s", s.name, loop), func(b *testing.B) {
				sc := NewScratch(s.xs[0].NRows)
				s.xs[0].product(s.ids[0], sc, flat) // grow the scratch
				rows := 0
				b.ReportAllocs()
				b.ResetTimer()
				start := time.Now()
				for i := 0; i < b.N; i++ {
					k := i % len(s.xs)
					productSink = s.xs[k].product(s.ids[k], sc, flat)
					rows += s.xs[k].Card()
				}
				b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(rows), "ns/row")
				b.ReportMetric(float64(s.rows)/float64(groups), "rows/group")
			})
		}
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

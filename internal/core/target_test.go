package core

import (
	"slices"
	"testing"
)

// TestPairSetCapRule pins when a pairSet overflows: the cap is checked
// before each insert, so a set overflows exactly when the distinct
// pairs added before the final add already number max or more. The
// long duplicate-heavy streams push past any internal compaction point
// part-way through, which must change neither outcome.
func TestPairSetCapRule(t *testing.T) {
	const max = 4
	distinct := []pair{{0, 1}, {0, 2}, {1, 3}, {2, 2}}
	type streamCase struct {
		name     string
		stream   []pair
		overflow bool
	}
	cases := []streamCase{
		{"max distinct then a duplicate", append(slices.Clone(distinct), pair{0, 1}), true},
		{"max distinct, last one new", slices.Clone(distinct), false},
		{"max distinct then a new pair", append(slices.Clone(distinct), pair{5, 6}), true},
	}
	// The same outcomes with the first max-1 distinct pairs repeated
	// many times before the tail of each stream.
	var repeated []pair
	for i := 0; i < 10*max; i++ {
		repeated = append(repeated, distinct[i%(max-1)])
	}
	for _, c := range cases[:3] {
		cases = append(cases, streamCase{"compacted: " + c.name,
			append(slices.Clone(repeated), c.stream[max-1:]...), c.overflow})
	}

	want := slices.Clone(distinct)
	slices.SortFunc(want, func(x, y pair) int {
		if x.a != y.a {
			return int(x.a - y.a)
		}
		return int(x.b - y.b)
	})
	for _, c := range cases {
		ps := newPairSet(max)
		for _, p := range c.stream {
			ps.add(p)
		}
		got := ps.slice()
		if ps.overflow != c.overflow {
			t.Errorf("%s: overflow = %v, want %v", c.name, ps.overflow, c.overflow)
			continue
		}
		if !c.overflow && !slices.Equal(got, want) {
			t.Errorf("%s: slice = %v, want %v", c.name, got, want)
		}
	}
}

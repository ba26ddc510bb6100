package xmlgen

import (
	"context"
	"testing"
	"time"

	"discoverxfd/internal/core"
	"discoverxfd/internal/relation"
)

// TestGoldenDiscoveryCounts pins the exact discovery output sizes for
// every default dataset. Generators and discovery are deterministic,
// so any change here is a behaviour change that deserves review (an
// algorithmic fix, a generator tweak, or a regression).
func TestGoldenDiscoveryCounts(t *testing.T) {
	type golden struct {
		nodes, tuples, fds, interFDs, keys, redundant int
	}
	want := map[string]golden{
		"warehouse(states=4,stores=3,books=12,catalog=18)": {873, 403, 12, 6, 5, 922},
		"dblp(venues=6,articles=40,pool=120)":              {1696, 723, 17, 13, 4, 1466},
		"psd(entries=150,pool=60,sets=4)":                  {4106, 1809, 104, 25, 4, 12828},
		"auction(factor=1)":                                {1908, 411, 7, 5, 15, 114},
		"mondial(countries=8,pool=30)":                     {715, 194, 22, 16, 25, 630},
		"catalog(products=120,skus=40)":                    {1084, 362, 8, 0, 8, 572},
	}
	for _, ds := range datasets() {
		h, err := relation.Build(ds.Tree, ds.Schema, relation.Options{})
		if err != nil {
			t.Fatalf("%s: %v", ds.Name, err)
		}
		res, err := core.NewEngine(core.Options{}).Discover(context.Background(), h, time.Time{}, false)
		if err != nil {
			t.Fatalf("%s: %v", ds.Name, err)
		}
		inter := 0
		for _, f := range res.FDs {
			if f.Inter {
				inter++
			}
		}
		red := 0
		for _, r := range res.Redundancies {
			red += r.RedundantValues
		}
		got := golden{ds.Tree.Size(), h.TotalTuples(), len(res.FDs), inter, len(res.Keys), red}
		if w, ok := want[ds.Name]; !ok {
			t.Errorf("%s: no golden entry; got %+v", ds.Name, got)
		} else if got != w {
			t.Errorf("%s: got %+v, want %+v", ds.Name, got, w)
		}
	}
}

package bench

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"discoverxfd/internal/core"
	"discoverxfd/internal/relation"
	"discoverxfd/internal/xmlgen"
)

// E12Parallel measures the parallel-discovery feature: independent
// relation subtrees (auction's region/person/auction branches, psd's
// sibling set elements) run concurrently; output is identical to the
// serial run (enforced by TestParallelMatchesSerial).
func E12Parallel(quick bool) *Table {
	scales := []int{4, 8}
	if !quick {
		scales = []int{4, 8, 16}
	}
	t := &Table{
		ID:      "E12",
		Title:   "Parallel discovery over independent subtrees",
		Columns: []string{"dataset", "scale", "serial", "parallel", "speedup"},
		Notes: []string{
			fmt.Sprintf("GOMAXPROCS=%d; speedup is bounded by the largest single relation's lattice", runtime.GOMAXPROCS(0)),
			"on a single-core host the speedup is ~1.0x by construction; correctness (identical output) is what the tests pin",
		},
	}
	run := func(name string, ds xmlgen.Dataset) {
		h, err := relation.Build(ds.Tree, ds.Schema, relation.Options{})
		if err != nil {
			panic(err)
		}
		best := func(parallel bool) time.Duration {
			bestD := time.Duration(1<<62 - 1)
			for i := 0; i < 3; i++ {
				start := time.Now()
				if _, err := core.NewEngine(core.Options{Parallel: parallel}).Discover(context.Background(), h, time.Time{}, false); err != nil {
					panic(err)
				}
				if d := time.Since(start); d < bestD {
					bestD = d
				}
			}
			return bestD
		}
		serial := best(false)
		par := best(true)
		t.Rows = append(t.Rows, []string{
			name, ds.Name,
			fmtDur(serial), fmtDur(par),
			fmt.Sprintf("%.2fx", float64(serial)/float64(par)),
		})
	}
	for _, sc := range scales {
		au := xmlgen.DefaultAuction()
		au.Factor = sc
		run(fmt.Sprintf("auction x%d", sc), xmlgen.Auction(au))
	}
	for _, sc := range scales {
		ps := xmlgen.DefaultPSD()
		ps.Entries *= sc
		ps.ProteinPool *= sc
		run(fmt.Sprintf("psd x%d", sc), xmlgen.PSD(ps))
	}
	return t
}

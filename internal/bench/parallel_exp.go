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

// E12Parallel measures the level precompute: a lattice level with at
// least 4 products over at least 256 rows computes them on up to
// GOMAXPROCS workers. The serial column runs the same engine at
// GOMAXPROCS=1, one product worker; output and every Stats counter are
// the same at any setting (enforced by TestParallelMatchesSerial).
func E12Parallel(quick bool) *Table {
	sizes := []int{1200, 2400}
	if !quick {
		sizes = append(sizes, 4800)
	}
	procs := runtime.GOMAXPROCS(0)
	t := &Table{
		ID:      "E12",
		Title:   "Lattice level products on every core",
		Columns: []string{"dataset", "products", "parallel", "GOMAXPROCS=1", fmt.Sprintf("GOMAXPROCS=%d", procs), "speedup"},
		Notes: []string{
			"flat wide tables of 12 attributes, domain 6, an FD every 3rd attribute (the wide_lattice shape); best of 3 cold runs per setting",
			"on a single-core host the speedup is ~1.0x by construction",
		},
	}
	for _, rows := range sizes {
		ds := xmlgen.Wide(xmlgen.WideParams{Rows: rows, Attrs: 12, Domain: 6, FDEvery: 3, Seed: 1})
		h, err := relation.Build(ds.Tree, ds.Schema, relation.Options{})
		if err != nil {
			panic(err)
		}
		best := func(p int) (time.Duration, core.Stats) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
			bestD := time.Duration(1<<62 - 1)
			var st core.Stats
			for i := 0; i < 3; i++ {
				start := time.Now()
				res, err := core.NewEngine(core.Options{}).Discover(context.Background(), h, time.Time{}, false)
				if err != nil {
					panic(err)
				}
				if d := time.Since(start); d < bestD {
					bestD, st = d, res.Stats
				}
			}
			return bestD, st
		}
		serial, st := best(1)
		par, _ := best(procs)
		t.Rows = append(t.Rows, []string{
			ds.Name,
			fmt.Sprintf("%d", st.PartitionsComputed), fmt.Sprintf("%d", st.ParallelProducts),
			fmtDur(serial), fmtDur(par),
			fmt.Sprintf("%.2fx", float64(serial)/float64(par)),
		})
	}
	return t
}

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

// E14EngineReuse measures the reusable-engine warm path: repeated
// core.Engine.Discover calls over the same hierarchy reuse the
// engine's retained immutable partitions, against cold one-shot runs
// that rebuild every partition from the data. The speedup is a
// within-run ratio (warm and cold runs interleave on the same
// machine), the quantity the CI bench gate pins against the committed
// BENCH_partition.json — the gate protects the warm layer from
// silently degenerating into a cold run.
func E14EngineReuse(quick bool) *Table {
	rows, domRows := 2000, 4000
	if !quick {
		rows, domRows = 8000, 16000
	}
	t := &Table{
		ID:    "E14",
		Title: "Engine reuse: warm repeated discovery vs cold one-shot",
		Columns: []string{"dataset", "tuples", "cold", "warm", "speedup",
			"warm cache hits", "warm cache misses"},
		Metrics: map[string]float64{},
		Stats:   map[string]core.Stats{},
		Notes: []string{
			"cold = Engine.Discover on a fresh engine per call, warm layer off: every partition rebuilt from the data",
			"warm = repeated Engine.Discover on one engine: immutable partitions carried across runs",
			fmt.Sprintf("GOMAXPROCS=%d; speedups are within-run ratios, the quantity the CI gate pins", runtime.GOMAXPROCS(0)),
		},
	}

	cases := []struct {
		key  string // metric suffix
		name string
		ds   xmlgen.Dataset
	}{
		{"wide", "wide repeated-value", xmlgen.Wide(xmlgen.WideParams{
			Rows: rows, Attrs: 10, Domain: 6, FDEvery: 3, Seed: 5})},
		{"low_domain", "wide low-domain", xmlgen.Wide(xmlgen.WideParams{
			Rows: domRows, Attrs: 8, Domain: 3, FDEvery: 2, Seed: 6})},
		{"psd", "psd hierarchy", func() xmlgen.Dataset {
			ps := xmlgen.DefaultPSD()
			ps.Entries *= 2
			ps.ProteinPool *= 2
			return xmlgen.PSD(ps)
		}()},
	}
	// The wide cases are partition-bound, so their warm-vs-cold ratio
	// is a stable signal and is gated (speedup_ prefix). PSD's runtime
	// is dominated by target checks and FD verification, leaving its
	// ratio near 1.0 — reported for the table, but under a non-gated
	// key so the CI gate doesn't pin measurement noise.
	gated := map[string]bool{"wide": true, "low_domain": true}
	for _, c := range cases {
		h, err := relation.Build(c.ds.Tree, c.ds.Schema, relation.Options{})
		if err != nil {
			panic(fmt.Sprintf("bench: %s: %v", c.ds.Name, err))
		}
		opts := core.Options{ApproxError: 0.05}

		coldDur, _, _, _ := bestDiscover(h, opts)

		eng := core.NewEngine(opts)
		if _, err := eng.Discover(context.Background(), h, time.Time{}, true); err != nil {
			panic(fmt.Sprintf("bench: %v", err))
		}
		warmDur, warmRes := bestEngineDiscover(eng, h)

		speedup := float64(coldDur) / float64(warmDur)
		st := warmRes.Stats
		t.Rows = append(t.Rows, []string{
			c.name,
			fmt.Sprintf("%d", h.TotalTuples()),
			fmtDur(coldDur), fmtDur(warmDur),
			fmt.Sprintf("%.2fx", speedup),
			fmt.Sprintf("%d", st.PartitionCacheHits),
			fmt.Sprintf("%d", st.PartitionCacheMisses),
		})
		if gated[c.key] {
			t.Metrics["speedup_engine_reuse_"+c.key] = speedup
		} else {
			t.Metrics["warm_ratio_"+c.key] = speedup
		}
		t.Metrics["warm_cache_hits_"+c.key] = float64(st.PartitionCacheHits)
		t.Metrics["warm_cache_misses_"+c.key] = float64(st.PartitionCacheMisses)
		t.Stats[c.key] = st
	}
	return t
}

// bestEngineDiscover runs Engine.Discover three times on an
// already-warmed engine and returns the best wall time and that run's
// result.
func bestEngineDiscover(eng *core.Engine, h *relation.Hierarchy) (time.Duration, *core.Result) {
	bestD := time.Duration(1<<62 - 1)
	var bestRes *core.Result
	for i := 0; i < 3; i++ {
		start := time.Now()
		res, err := eng.Discover(context.Background(), h, time.Time{}, true)
		if err != nil {
			panic(fmt.Sprintf("bench: %v", err))
		}
		if d := time.Since(start); d < bestD {
			bestD, bestRes = d, res
		}
	}
	return bestD, bestRes
}

package bench

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"discoverxfd/internal/core"
	"discoverxfd/internal/relation"
	"discoverxfd/internal/trace"
	"discoverxfd/internal/xmlgen"
)

// E13Partition measures the partition-engine fast path (value
// interning, the run-wide partition cache, parallel level products)
// against the naive engine (generic hashed builds, serial products,
// evaluator-only verification — the pre-fast-path configuration, kept
// selectable via Options.NaivePartitions). Both engines run on the
// same datasets in the same process, so the reported speedups are
// within-run ratios, stable across machines; they are what the CI
// bench gate compares against the committed BENCH_partition.json.
//
// The headline row is an E1-style full discovery on a repeated-value
// dataset (small value domains → large partition groups), the shape
// the counting builds and the cache are optimized for.
func E13Partition(quick bool) *Table {
	rows, domRows := 2000, 4000
	if !quick {
		rows, domRows = 8000, 16000
	}
	t := &Table{
		ID:    "E13",
		Title: "Partition-engine fast path vs naive engine",
		Columns: []string{"dataset", "tuples", "naive", "fast", "speedup",
			"cache hits", "cache misses", "par products", "naive allocs", "fast allocs"},
		Metrics:   map[string]float64{},
		Stats:     map[string]core.Stats{},
		Latencies: map[string]LatencySummary{},
		Notes: []string{
			"naive = Options.NaivePartitions: hashed partition builds, serial products, evaluator-only verification",
			"fast = interned dense builds + run-wide partition cache + parallel level products",
			fmt.Sprintf("GOMAXPROCS=%d; speedups are within-run ratios, the quantity the CI gate pins", runtime.GOMAXPROCS(0)),
			"traced_overhead_e1_discovery = fast path with a discard tracer vs untraced, informational (not gated)",
		},
	}

	cases := []struct {
		key  string // metric suffix
		name string
		ds   xmlgen.Dataset
	}{
		{"e1_discovery", "wide repeated-value", xmlgen.Wide(xmlgen.WideParams{
			Rows: rows, Attrs: 10, Domain: 6, FDEvery: 3, Seed: 5})},
		{"low_domain", "wide low-domain", xmlgen.Wide(xmlgen.WideParams{
			Rows: domRows, Attrs: 8, Domain: 3, FDEvery: 2, Seed: 6})},
		{"psd", "psd hierarchy", func() xmlgen.Dataset {
			ps := xmlgen.DefaultPSD()
			ps.Entries *= 4
			ps.ProteinPool *= 4
			return xmlgen.PSD(ps)
		}()},
	}
	for _, c := range cases {
		h, err := relation.Build(c.ds.Tree, c.ds.Schema, relation.Options{})
		if err != nil {
			panic(fmt.Sprintf("bench: %s: %v", c.ds.Name, err))
		}
		naiveOpts := core.Options{ApproxError: 0.05, NaivePartitions: true}
		fastOpts := core.Options{ApproxError: 0.05}

		naiveDur, naiveAllocs, _, naiveSamples := bestDiscover(h, naiveOpts)
		fastDur, fastAllocs, fastRes, fastSamples := bestDiscover(h, fastOpts)
		t.Latencies["naive_"+c.key] = summarizeLatency(naiveSamples)
		t.Latencies["fast_"+c.key] = summarizeLatency(fastSamples)

		speedup := float64(naiveDur) / float64(fastDur)
		st := fastRes.Stats
		t.Rows = append(t.Rows, []string{
			c.name,
			fmt.Sprintf("%d", h.TotalTuples()),
			fmtDur(naiveDur), fmtDur(fastDur),
			fmt.Sprintf("%.2fx", speedup),
			fmt.Sprintf("%d", st.PartitionCacheHits),
			fmt.Sprintf("%d", st.PartitionCacheMisses),
			fmt.Sprintf("%d", st.ParallelProducts),
			fmt.Sprintf("%d", naiveAllocs),
			fmt.Sprintf("%d", fastAllocs),
		})
		t.Metrics["speedup_"+c.key] = speedup
		t.Metrics["cache_hits_"+c.key] = float64(st.PartitionCacheHits)
		t.Metrics["cache_misses_"+c.key] = float64(st.PartitionCacheMisses)
		t.Metrics["parallel_products_"+c.key] = float64(st.ParallelProducts)
		t.Metrics["allocs_naive_"+c.key] = float64(naiveAllocs)
		t.Metrics["allocs_fast_"+c.key] = float64(fastAllocs)
		t.Stats[c.key] = st

		// Tracing overhead on the headline case: the same fast run
		// with every event built and discarded. Informational only —
		// the gated nil-tracer speedups above already pin the
		// tracing-off cost at zero (the hot paths skip event
		// construction entirely when Options.Tracer is nil).
		if c.key == "e1_discovery" {
			tracedOpts := fastOpts
			tracedOpts.Tracer = trace.Discard
			tracedDur, _, _, _ := bestDiscover(h, tracedOpts)
			t.Metrics["traced_overhead_"+c.key] = float64(tracedDur) / float64(fastDur)
		}
	}
	return t
}

// bestDiscover runs Discover three times and returns the best wall
// time, that run's heap allocation count, its result, and every run's
// wall time (for latency summaries).
func bestDiscover(h *relation.Hierarchy, opts core.Options) (time.Duration, uint64, *core.Result, []time.Duration) {
	bestD := time.Duration(1<<62 - 1)
	var bestAllocs uint64
	var bestRes *core.Result
	samples := make([]time.Duration, 0, 3)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		res, err := core.NewEngine(opts).Discover(context.Background(), h, time.Time{}, false)
		if err != nil {
			panic(fmt.Sprintf("bench: %v", err))
		}
		d := time.Since(start)
		runtime.ReadMemStats(&after)
		samples = append(samples, d)
		if d < bestD {
			bestD, bestAllocs, bestRes = d, after.Mallocs-before.Mallocs, res
		}
	}
	return bestD, bestAllocs, bestRes, samples
}

// Command benchmark is the repository's end-to-end benchmark: it
// drives the layers a user touches — library calls from document bytes
// to encoded Result, and xfdd over loopback HTTP — in closed loops on
// four seeded workloads, checks every output, and prints the metrics
// BENCHMARK.json declares. See README.md.
//
// One run of one workload (the last line of standard output is the
// JSON report):
//
//	bash benchmark/run.sh --workload psd_cold --seed 1 --seconds 15 --trace 0
//
// --trace 1 gives the per-layer metrics of a traced run instead, and
// --trace <file> also writes that run's spans to the file as JSON
// lines. Without --workload every workload runs in turn. --runs N
// writes N reports per workload into --out, and --compare A B compares
// two such directories.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// The metrics the benchmark prints: endToEnd with tracing off,
// perLayer in a traced run. BENCHMARK.json declares the same names,
// with each metric's direction and bound.
var (
	endToEnd = []metricDef{
		{"throughput_ops_s", "ops/s"},
		{"latency_p50_ms", "ms"},
		{"latency_p90_ms", "ms"},
		{"alloc_mb_per_op", "MB"},
		{"setup_s", "s"},
	}
	perLayer = []metricDef{
		{"source.parse_ms", "ms"},
		{"source.parse_ns_per_byte", "ns/byte"},
		{"source.parse_alloc_mb", "MB"},
		{"datatree.infer_ms", "ms"},
		{"datatree.infer_alloc_mb", "MB"},
		{"relation.build_ms", "ms"},
		{"relation.build_ns_per_tuple", "ns/tuple"},
		{"relation.build_alloc_mb", "MB"},
		{"core.discover_ms", "ms"},
		{"core.discover_alloc_mb", "MB"},
		{"core.plan_ms", "ms"},
		{"core.traverse_ms", "ms"},
		{"core.minimize_ms", "ms"},
		{"core.verify_ms", "ms"},
		{"core.assemble_ms", "ms"},
		{"core.intra_ms", "ms"},
		{"core.inter_ms", "ms"},
		{"core.unstaged_ms", "ms"},
		{"core.lattice_nodes", "count"},
		{"core.partitions_computed", "count"},
		{"core.cache_hit_ratio", "ratio"},
		{"core.targets_created", "count"},
		{"core.targets_dropped", "count"},
		{"core.relations_reused_ratio", "ratio"},
		{"core.partitions_kept", "count"},
		{"core.partitions_patched", "count"},
		{"core.partitions_dropped", "count"},
		{"encode.ms", "ms"},
		{"encode.bytes", "bytes"},
		{"server.request_ms", "ms"},
		{"server.response_bytes", "bytes"},
		{"server.overhead_ms", "ms"},
		{"runtime.gc_cycles_per_op", "count"},
		{"runtime.gc_cpu_fraction", "ratio"},
		{"trace_overhead_ratio", "ratio"},
		{"unattributed_ms", "ms"},
	}
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object a run prints as its last line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is one run of one workload.
type runConfig struct {
	seed     int64
	seconds  float64
	traced   bool
	spans    string        // traced runs: file to write the spans to ("" = none)
	setups   int           // set-ups whose median time is setup_s, at least
	setupFor time.Duration // and more until they took this long in all
	size     sizes
	wrap     func(http.Handler) http.Handler
	probe    func() float64 // host speed (see probe.go); nil: the real probe
}

// setUp sets the workload up at least n times, and more until the
// set-ups took at least total, and keeps the last instance. It returns
// the median set-up time, each scaled by the host speed the probe
// measured around it; the repetitions keep short set-ups from reading
// noise. Every set-up starts from a collected heap, so the garbage of
// the one before does not land in its time.
func setUp(ctx context.Context, w workload, e env, probe func() float64, n int, total time.Duration) (instance, float64, error) {
	var times []float64
	var inst instance
	var spent time.Duration
	for i := 0; i < n || spent < total; i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		before := probe()
		start := time.Now()
		var err error
		if inst, err = w.setup(ctx, e); err != nil {
			return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		d := time.Since(start)
		spent += d
		times = append(times, d.Seconds()*(before+probe())/2)
	}
	return inst, median(times), nil
}

// phase sets a workload up, runs its closed loop and its end-of-run
// checks. It returns the loop's measurements with failed counting
// every op found wrong.
func phase(ctx context.Context, w workload, e env, cfg runConfig, clients int, d time.Duration) (loopResult, float64, error) {
	inst, setupS, err := setUp(ctx, w, e, cfg.probe, cfg.setups, cfg.setupFor)
	if err != nil {
		return loopResult{}, 0, err
	}
	defer inst.close()
	lr := closedLoop(ctx, inst, e.rec, cfg.probe, clients, w.warmup, d)
	wrong, err := inst.finish(ctx)
	if err != nil {
		return lr, setupS, fmt.Errorf("%s: %w", w.name, err)
	}
	for _, k := range wrong {
		if !lr.failedOps[k] {
			lr.failed++
			fmt.Fprintf(os.Stderr, "benchmark: %s: op %d returned a wrong result\n", w.name, k)
		}
	}
	return lr, setupS, nil
}

// runWorkload runs one workload and builds its report. Untraced, it
// measures the end-to-end metrics with the workload's own client
// count. Traced, it first runs a third of the time untraced and then
// the rest traced, both with one client, and reports the per-layer
// metrics.
func runWorkload(ctx context.Context, w workload, cfg runConfig) (report, error) {
	d := time.Duration(cfg.seconds * float64(time.Second))
	e := env{seed: cfg.seed, size: cfg.size, wrap: cfg.wrap}
	if cfg.probe == nil {
		cfg.probe = newProbe().speed
	}
	if !cfg.traced {
		lr, setupS, err := phase(ctx, w, e, cfg, w.clients, d)
		if err != nil {
			return report{}, err
		}
		thr, p50, p90 := lr.summary(false)
		rawThr, rawP50, rawP90 := lr.summary(true)
		fmt.Fprintf(os.Stderr, "%s: unscaled: throughput %.4g ops/s, p50 %.4g ms, p90 %.4g ms; host speed per epoch:", w.name, rawThr, rawP50, rawP90)
		for _, ep := range lr.epochs {
			fmt.Fprintf(os.Stderr, " %.3f", ep.speed)
		}
		fmt.Fprintln(os.Stderr)
		return build(lr.attempted, lr.failed, endToEnd, map[string]float64{
			"throughput_ops_s": thr,
			"latency_p50_ms":   p50,
			"latency_p90_ms":   p90,
			"alloc_mb_per_op":  float64(lr.runtime.alloc) / 1e6 / float64(lr.succeeded()),
			"setup_s":          setupS,
		})
	}

	cfg.setups, cfg.setupFor = 1, 0 // setup_s is not reported here
	base, _, err := phase(ctx, w, e, cfg, 1, d/3)
	if err != nil {
		return report{}, err
	}
	e.rec = newRecorder()
	lr, _, err := phase(ctx, w, e, cfg, 1, d-d/3)
	if err != nil {
		return report{}, err
	}
	m := e.rec.layerMetrics()
	m["trace_overhead_ratio"] = median(lr.latencies()) / median(base.latencies())
	m["runtime.gc_cycles_per_op"] = float64(base.runtime.gcCycles) / float64(base.succeeded())
	m["runtime.gc_cpu_fraction"] = base.runtime.gcCPU / base.runtime.totalCPU
	if cfg.spans != "" {
		if err := e.rec.writeJSONL(cfg.spans); err != nil {
			return report{}, err
		}
	}
	return build(base.attempted+lr.attempted, base.failed+lr.failed, perLayer, m)
}

// build assembles a report carrying exactly the given metrics.
func build(attempted, failed int, defs []metricDef, values map[string]float64) (report, error) {
	r := report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return report{}, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // no successful op to divide by; correct is false then
		}
		r.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return r, nil
}

func main() {
	workloadName := flag.String("workload", "", "workload to run (default: every workload in turn)")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 15, "length of the timed window, in seconds")
	traceArg := flag.String("trace", "0", `0: end-to-end metrics; 1: per-layer metrics of a traced run; any other value: traced run writing its spans to that file`)
	runs := flag.Int("runs", 0, "run each selected workload this many times, writing one report per run into -out")
	outDir := flag.String("out", ".bench_build/runs", "directory -runs writes its reports to")
	compare := flag.Bool("compare", false, "compare the report directories given as the two arguments")
	spec := flag.String("spec", "BENCHMARK.json", "benchmark declaration -compare reads bounds from")
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two report directories")
		} else {
			err = compareDirs(os.Stdout, *spec, flag.Arg(0), flag.Arg(1))
		}
	case *runs > 0:
		err = repeat(*workloadName, *seed, *seconds, *traceArg, *runs, *outDir)
	case *workloadName == "":
		err = runAll(*seed, *seconds, *traceArg)
	default:
		err = runOne(*workloadName, *seed, *seconds, *traceArg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process and prints its report.
func runOne(name string, seed int64, seconds float64, traceArg string) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	cfg := runConfig{seed: seed, seconds: seconds, setups: 3, setupFor: time.Second, size: fullSize, traced: traceArg != "0"}
	if cfg.traced && traceArg != "1" {
		cfg.spans = traceArg
	}
	r, err := runWorkload(context.Background(), w, cfg)
	if err != nil {
		return err
	}
	return printReport(os.Stderr, name, r)
}

// printReport writes the report as a table to table and as one JSON
// line to standard output.
func printReport(table *os.File, name string, r report) error {
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(table, "%s: correct=%t attempted=%d failed=%d\n", name, r.Correct, r.Attempted, r.Failed)
	for _, k := range names {
		fmt.Fprintf(table, "  %-30s %14.4f %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// child runs one workload in a fresh process of this binary, so runs
// do not share a heap, and returns its report.
func child(name string, seed int64, seconds float64, traceArg string) (report, error) {
	exe, err := os.Executable()
	if err != nil {
		return report{}, err
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", traceArg)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return report{}, fmt.Errorf("%s: %w", name, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return report{}, fmt.Errorf("%s: reading the report: %w", name, err)
	}
	return r, nil
}

// runAll runs every workload in turn and prints each report.
func runAll(seed int64, seconds float64, traceArg string) error {
	for _, w := range workloads {
		r, err := child(w.name, seed, seconds, traceArg)
		if err != nil {
			return err
		}
		if err := printReport(os.Stdout, w.name, r); err != nil {
			return err
		}
	}
	return nil
}

// saved is one report file of -runs.
type saved struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Started  string `json:"started"`
	report
}

// repeat runs each selected workload n times, each run in its own
// process on its own seed, and writes every report to
// dir/<workload>/run-<i>.json. Numbering continues after the files
// already there, and run i uses seed+i, so alternating single runs of
// two builds into two directories pair up run by run on equal seeds.
func repeat(name string, seed int64, seconds float64, traceArg string, n int, dir string) error {
	selected := workloads
	if name != "" {
		w, ok := workloadByName(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		selected = []workload{w}
	}
	for i := 0; i < n; i++ {
		for _, w := range selected {
			wdir := dir + "/" + w.name
			if err := os.MkdirAll(wdir, 0o755); err != nil {
				return err
			}
			existing, err := reportFiles(wdir)
			if err != nil {
				return err
			}
			k := len(existing)
			started := time.Now().UTC().Format(time.RFC3339)
			r, err := child(w.name, seed+int64(k), seconds, traceArg)
			if err != nil {
				return err
			}
			data, err := json.MarshalIndent(saved{w.name, seed + int64(k), started, r}, "", "  ")
			if err != nil {
				return err
			}
			path := fmt.Sprintf("%s/run-%03d.json", wdir, k)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "benchmark: wrote %s\n", path)
		}
	}
	return nil
}

// reportFiles lists dir's run-*.json files in run order.
func reportFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "run-") && strings.HasSuffix(e.Name(), ".json") {
			out = append(out, dir+"/"+e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

// readSaved loads every report under dir, by workload, in run order.
func readSaved(dir string) (map[string][]saved, error) {
	out := map[string][]saved{}
	for _, w := range workloads {
		files, err := reportFiles(dir + "/" + w.name)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, err
		}
		for _, path := range files {
			data, err := os.ReadFile(path)
			if err != nil {
				return nil, err
			}
			var s saved
			if err := json.Unmarshal(data, &s); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			out[w.name] = append(out[w.name], s)
		}
	}
	return out, nil
}

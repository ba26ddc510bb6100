// Package bench is the experiment harness reconstructing the paper's
// evaluation (Section 5; see DESIGN.md for the reconstruction
// caveat). Each experiment E1–E7 regenerates one table or figure:
// the harness runs the system on generated datasets and prints the
// same rows/series the paper reports. Absolute timings differ from
// the authors' 2006 testbed; the shapes (who wins, by what factor,
// where growth turns super-linear) are the reproduction target.
package bench

import (
	"fmt"
	"io"
	"strings"

	"discoverxfd/internal/core"
)

// Table is one experiment's printable output.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
	// Metrics carries machine-readable scalars for the JSON report and
	// the CI bench gate. By convention, keys starting with "speedup"
	// are ratios measured within one run (fast vs naive on the same
	// machine) and are what the regression gate compares; other keys
	// (cache hits, allocation counts) are informational.
	Metrics map[string]float64
	// Stats carries full run Stats per case key — the same snapshot a
	// traced run's run_end summarizes — so the JSON report preserves
	// the counters behind the table's derived cells. Informational
	// only: the CI gate never compares Stats.
	Stats map[string]core.Stats
	// Latencies carries per-case latency distributions over the
	// experiment's repeated runs (nearest-rank p50/p95/p99/max).
	// Informational only, like Stats: absolute latencies are
	// machine-dependent and never gated.
	Latencies map[string]LatencySummary
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	line(t.Columns)
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// String renders the table into a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

// Experiment is one registered experiment.
type Experiment struct {
	ID    string
	Title string
	// Run executes the experiment. quick scales parameters down for
	// CI-speed runs; the full configuration reproduces EXPERIMENTS.md.
	Run func(quick bool) *Table
}

// All returns the experiment registry in order.
func All() []Experiment {
	return []Experiment{
		{ID: "e1", Title: "Dataset summary and discovered constraints (Table 1)", Run: E1Datasets},
		{ID: "e2", Title: "Scalability with data size (Figure: time vs size)", Run: E2Scalability},
		{ID: "e3", Title: "Hierarchical vs flat representation (Figure: unrelated set elements)", Run: E3FlatVsHier},
		{ID: "e4", Title: "Schema-width sensitivity (Figure: time vs attributes)", Run: E4SchemaWidth},
		{ID: "e5", Title: "Intra- vs inter-relation discovery cost split", Run: E5IntraInter},
		{ID: "e6", Title: "Pruning-rule ablation", Run: E6Pruning},
		{ID: "e7", Title: "Unordered-set vs ordered-list semantics (Section 4.5 remark)", Run: E7SetVsList},
		{ID: "e8", Title: "Approximate FD recovery under noise (g3 extension)", Run: E8Approximate},
		{ID: "e9", Title: "Refinement convergence (XNF repairs extension)", Run: E9Refinement},
		{ID: "e10", Title: "FD notions compared (Section 2.3)", Run: E10Notions},
		{ID: "e11", Title: "Relational baselines: TANE vs Dep-Miner vs FUN", Run: E11Baselines},
		{ID: "e12", Title: "Lattice level products on every core", Run: E12Parallel},
		{ID: "e13", Title: "Partition-engine fast path vs naive engine", Run: E13Partition},
		{ID: "e14", Title: "Engine reuse: warm repeated discovery vs cold one-shot", Run: E14EngineReuse},
		{ID: "e15", Title: "E-update: incremental discovery under document mutations", Run: E15UpdateIncremental},
		{ID: "e16", Title: "Source parity: one corpus ingested per document format", Run: E16SourceParity},
	}
}

// ByID returns the experiment with the given id (case-insensitive),
// or nil.
func ByID(id string) *Experiment {
	id = strings.ToLower(id)
	for _, e := range All() {
		if e.ID == id {
			out := e
			return &out
		}
	}
	return nil
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// declared is one metric of BENCHMARK.json.
type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// declaration is the part of BENCHMARK.json the benchmark reads.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

func readDeclaration(path string) (declaration, error) {
	var d declaration
	data, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(data, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// verdict compares side b with side a on one metric. Sides agree when
// b's median is not worse than a's by more than the bound. With ten or
// more runs paired in order, b is a gain when it is better in at least
// nine tenths of the pairs (ties count for neither side) and the
// medians differ by more than a's inter-quartile range.
func verdict(m declared, a, b []float64) (change float64, wins, pairs int, v string) {
	ma, mb := median(a), median(b)
	change = (mb - ma) / ma
	better := func(x, y float64) bool { // x better than y
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	pairs = len(a)
	if len(b) < pairs {
		pairs = len(b)
	}
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	q1, q3 := quartiles(a)
	switch {
	case pairs >= 10 && wins*10 >= 9*pairs && math.Abs(mb-ma) > q3-q1 && better(mb, ma):
		v = "GAIN"
	case m.Bound == nil:
		v = "-"
	case (m.Better == "higher" && -change > *m.Bound) || (m.Better == "lower" && change > *m.Bound):
		v = "WORSE"
	default:
		v = "within"
	}
	return change, wins, pairs, v
}

// compareDirs prints, per workload and metric, each side's median and
// quartiles over its runs and the verdict of side b against side a.
func compareDirs(w io.Writer, specPath, dirA, dirB string) error {
	decl, err := readDeclaration(specPath)
	if err != nil {
		return err
	}
	a, err := readSaved(dirA)
	if err != nil {
		return err
	}
	b, err := readSaved(dirB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tA median [q1, q3] (n)\tB median [q1, q3] (n)\tB vs A\tbound\tB wins\tverdict\n")
	side := func(xs []float64) string {
		q1, q3 := quartiles(xs)
		return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", median(xs), q1, q3, len(xs))
	}
	metrics := append(append([]declared(nil), decl.EndToEnd...), decl.PerLayer...)
	for _, wl := range workloads {
		for _, m := range metrics {
			va, vb := values(a[wl.name], m.Name), values(b[wl.name], m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			change, wins, pairs, v := verdict(m, va, vb)
			bound := "-"
			if m.Bound != nil {
				bound = fmt.Sprintf("%.0f%%", *m.Bound*100)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.1f%%\t%s\t%d/%d\t%s\n",
				wl.name, m.Name, side(va), side(vb), change*100, bound, wins, pairs, v)
		}
	}
	return tw.Flush()
}

// values collects one metric over a side's runs, in run order.
func values(runs []saved, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

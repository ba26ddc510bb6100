package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"testing"
	"time"
)

// fixedSpeed stands in for the host probe, which takes longer than a
// smoke run's epochs.
func fixedSpeed() float64 { return 1 }

func declarationForTest(t *testing.T) declaration {
	t.Helper()
	d, err := readDeclaration("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func names(ms []declared) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

func reported(r report) []string {
	var out []string
	for k := range r.Metrics {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestDeclaration(t *testing.T) {
	d := declarationForTest(t)
	if n := len(d.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(d.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(d.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	var all []string
	for _, w := range d.Workloads {
		all = append(all, w.Name)
	}
	for _, m := range append(append([]declared(nil), d.EndToEnd...), d.PerLayer...) {
		all = append(all, m.Name)
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	for _, n := range all {
		if !valid.MatchString(n) {
			t.Errorf("name %q does not match %s", n, valid)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, m := range d.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", m.Name)
		}
	}

	var programWorkloads, declaredWorkloads []string
	for _, w := range workloads {
		programWorkloads = append(programWorkloads, w.name)
	}
	for _, w := range d.Workloads {
		declaredWorkloads = append(declaredWorkloads, w.Name)
	}
	if !equal(programWorkloads, declaredWorkloads) {
		t.Errorf("workloads: program %v, BENCHMARK.json %v", programWorkloads, declaredWorkloads)
	}
	for _, set := range []struct {
		defs []metricDef
		decl []declared
	}{{endToEnd, d.EndToEnd}, {perLayer, d.PerLayer}} {
		units := map[string]string{}
		for _, m := range set.decl {
			units[m.Name] = m.Unit
		}
		if len(units) != len(set.defs) {
			t.Errorf("program defines %d metrics, BENCHMARK.json declares %d", len(set.defs), len(units))
		}
		for _, m := range set.defs {
			if u, ok := units[m.name]; !ok || u != m.unit {
				t.Errorf("metric %s [%s]: BENCHMARK.json has unit %q (declared: %t)", m.name, m.unit, u, ok)
			}
		}
	}
}

// TestSmoke runs every workload briefly at reduced size, untraced and
// traced, and checks that each run succeeds and prints exactly the
// declared metrics.
func TestSmoke(t *testing.T) {
	d := declarationForTest(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{seed: 2, seconds: 0.5, traced: traced, setups: 1, size: smokeSize, probe: fixedSpeed}
			want := names(d.EndToEnd)
			if traced {
				cfg.seconds = 0.6
				want = names(d.PerLayer)
			}
			r, err := runWorkload(context.Background(), w, cfg)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d", w.name, traced, r.Correct, r.Attempted, r.Failed)
			}
			if got := reported(r); !equal(got, want) {
				t.Errorf("%s traced=%t: printed metrics %v, declared %v", w.name, traced, got, want)
			}
		}
	}
}

// TestDroppedFDIsAFailure corrupts every discovery reply by dropping
// one FD; each such op must count as failed.
func TestDroppedFDIsAFailure(t *testing.T) {
	dropOne := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			var res map[string]json.RawMessage
			var fds []json.RawMessage
			if rec.Code == http.StatusOK && json.Unmarshal(body, &res) == nil &&
				json.Unmarshal(res["fds"], &fds) == nil && len(fds) > 0 {
				res["fds"], _ = json.Marshal(fds[1:])
				body, _ = json.Marshal(res)
			}
			w.WriteHeader(rec.Code)
			_, _ = w.Write(body)
		})
	}
	w, _ := workloadByName("serve_mix")
	r, err := runWorkload(context.Background(), w, runConfig{seed: 1, seconds: 0.3, setups: 1, size: smokeSize, wrap: dropOne, probe: fixedSpeed})
	if err != nil {
		t.Fatal(err)
	}
	if r.Correct || r.Failed == 0 || r.Failed > r.Attempted {
		t.Errorf("correct=%t attempted=%d failed=%d; want every op with a dropped FD counted as failed", r.Correct, r.Attempted, r.Failed)
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(a, b int) *span {
		return &span{start: t0.Add(time.Duration(a) * time.Millisecond), end: t0.Add(time.Duration(b) * time.Millisecond)}
	}
	parent := at(0, 100)
	for _, tc := range []struct {
		name     string
		children []*span
		want     int
	}{
		{"no children", nil, 100},
		{"disjoint", []*span{at(10, 20), at(30, 50)}, 70},
		{"overlapping counted once", []*span{at(10, 40), at(30, 60)}, 50},
		{"nested counted once", []*span{at(10, 60), at(20, 30)}, 50},
		{"clipped to the parent", []*span{at(-10, 10), at(90, 130)}, 80},
		{"outside the parent", []*span{at(120, 130)}, 100},
		{"touching", []*span{at(0, 50), at(50, 100)}, 0},
	} {
		if got := selfTime(parent, tc.children); got != time.Duration(tc.want)*time.Millisecond {
			t.Errorf("%s: self time %v, want %dms", tc.name, got, tc.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Errorf("median = %v, want 5.5", m)
	}
}

// TestRelabelKeepsResults checks the premise that lets seeds be
// compared: relabelling a document changes its bytes but not what
// discovery finds in it.
func TestRelabelKeepsResults(t *testing.T) {
	ctx := context.Background()
	a, b := psdDocs(1, smokeSize)[0], psdDocs(2, smokeSize)[0]
	if bytes.Equal(a, b) {
		t.Fatal("seeds 1 and 2 gave the same document")
	}
	fa, err := libraryFingerprint(ctx, "xml", a)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := libraryFingerprint(ctx, "xml", b)
	if err != nil {
		t.Fatal(err)
	}
	if fa != fb {
		t.Errorf("relabelled documents gave different results:\n%s\n---\n%s", fa, fb)
	}
}

func TestVerdict(t *testing.T) {
	bound := 0.1
	lower := declared{Name: "latency_p50_ms", Better: "lower", Bound: &bound}
	base := []float64{100, 101, 99, 102, 98, 100, 101, 99, 100, 102}
	faster := []float64{90, 91, 89, 92, 88, 90, 91, 89, 90, 103} // better in 9 of 10 pairs
	for _, tc := range []struct {
		name string
		m    declared
		a, b []float64
		want string
	}{
		{"same code", lower, base, base, "within"},
		{"worse by more than the bound", lower, base, []float64{115, 116, 114}, "WORSE"},
		{"gain: nine of ten pairs and beyond the spread", lower, base, faster, "GAIN"},
		{"too few pairs for a gain", lower, base[:9], faster[:9], "within"},
		{"higher is better", declared{Name: "throughput_ops_s", Better: "higher", Bound: &bound}, base, []float64{85, 86, 84}, "WORSE"},
		{"no bound", declared{Name: "core.plan_ms", Better: "lower"}, base, []float64{150}, "-"},
	} {
		if _, _, _, v := verdict(tc.m, tc.a, tc.b); v != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, v, tc.want)
		}
	}
}

package discoverxfd_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"discoverxfd"
	"discoverxfd/internal/xmlgen"
)

// -update regenerates the golden Result JSON fixtures under
// testdata/golden from the current engine. The committed fixtures were
// produced by the pre-Engine monolithic discover() path; the
// differential test below pins the staged Run/Engine pipeline to
// byte-identical output.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden fixtures")

// goldenCases pairs every generated example corpus document with the
// option sets whose Result JSON is pinned. Stats wall-clock fields are
// zeroed before encoding (the only non-deterministic Result fields);
// everything else — FDs, keys, redundancy witnesses, lattice and
// cache counters — must reproduce exactly.
func goldenCases() []struct {
	slug string
	ds   xmlgen.Dataset
	opts *discoverxfd.Options
} {
	return []struct {
		slug string
		ds   xmlgen.Dataset
		opts *discoverxfd.Options
	}{
		{"warehouse", xmlgen.Warehouse(xmlgen.DefaultWarehouse()), nil},
		{"warehouse_approx", xmlgen.Warehouse(xmlgen.DefaultWarehouse()), &discoverxfd.Options{ApproxError: 0.05}},
		{"warehouse_intra", xmlgen.Warehouse(xmlgen.DefaultWarehouse()), &discoverxfd.Options{IntraOnly: true}},
		{"dblp", xmlgen.DBLP(xmlgen.DefaultDBLP()), nil},
		{"auction", xmlgen.Auction(xmlgen.DefaultAuction()), nil},
		{"mondial", xmlgen.Mondial(xmlgen.DefaultMondial()), nil},
		{"mondial_nosets", xmlgen.Mondial(xmlgen.DefaultMondial()), &discoverxfd.Options{NoSetElements: true}},
		{"catalog", xmlgen.Catalog(xmlgen.DefaultCatalog()), nil},
		{"psd", xmlgen.PSD(xmlgen.DefaultPSD()), nil},
	}
}

// TestResultJSONGolden is the refactor's differential harness: the
// public Discover path over the example corpus must emit byte-identical
// Result JSON to the committed pre-refactor fixtures.
func TestResultJSONGolden(t *testing.T) {
	for _, c := range goldenCases() {
		t.Run(c.slug, func(t *testing.T) {
			res, err := discoverxfd.NewEngine(c.opts).Discover(context.Background(), c.ds.Tree, c.ds.Schema)
			if err != nil {
				t.Fatalf("%s: %v", c.ds.Name, err)
			}
			zeroTimes(res)
			var buf bytes.Buffer
			if err := discoverxfd.WriteJSON(&buf, res); err != nil {
				t.Fatalf("%s: %v", c.ds.Name, err)
			}
			path := filepath.Join("testdata", "golden", c.slug+".json")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden fixture (run with -update): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s: Result JSON differs from golden %s\n%s", c.ds.Name, path, diffHint(want, buf.Bytes()))
			}
		})
	}
}

// zeroTimes clears the wall-clock Stats fields — the only
// non-deterministic Result fields — so encoded results compare
// byte-identically.
func zeroTimes(res *discoverxfd.Result) {
	res.Stats.IntraTime, res.Stats.InterTime, res.Stats.WallTime = 0, 0, 0
}

// TestTracedResultJSONIdentical pins the tracer's zero semantic
// footprint: over every golden corpus and option set, a run with a
// live JSONL tracer attached must produce byte-identical Result JSON
// to the untraced run (tracing observes the pipeline, never steers
// it).
func TestTracedResultJSONIdentical(t *testing.T) {
	for _, c := range goldenCases() {
		t.Run(c.slug, func(t *testing.T) {
			plain, err := discoverxfd.NewEngine(c.opts).Discover(context.Background(), c.ds.Tree, c.ds.Schema)
			if err != nil {
				t.Fatalf("%s: %v", c.ds.Name, err)
			}
			opts := discoverxfd.Options{}
			if c.opts != nil {
				opts = *c.opts
			}
			var events bytes.Buffer
			opts.Trace = discoverxfd.NewJSONLTracer(&events)
			traced, err := discoverxfd.NewEngine(&opts).Discover(context.Background(), c.ds.Tree, c.ds.Schema)
			if err != nil {
				t.Fatalf("%s traced: %v", c.ds.Name, err)
			}
			if events.Len() == 0 {
				t.Fatalf("%s: traced run emitted no events", c.ds.Name)
			}
			zeroTimes(plain)
			zeroTimes(traced)
			var want, got bytes.Buffer
			if err := discoverxfd.WriteJSON(&want, plain); err != nil {
				t.Fatal(err)
			}
			if err := discoverxfd.WriteJSON(&got, traced); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want.Bytes(), got.Bytes()) {
				t.Errorf("%s: traced Result JSON differs from untraced\n%s",
					c.ds.Name, diffHint(want.Bytes(), got.Bytes()))
			}
		})
	}
}

// stripVolatile removes the timestamp, run-id, and measured-duration
// fields from each JSONL trace line, leaving only the deterministic
// event payload.
func stripVolatile(t *testing.T, raw []byte) []string {
	t.Helper()
	var out []string
	for i, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		var ev map[string]any
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("trace line %d is not JSON: %v\n%s", i+1, err, line)
		}
		delete(ev, "t")
		delete(ev, "run")
		delete(ev, "ms")
		keys := make([]string, 0, len(ev))
		for k := range ev {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "%s=%v;", k, ev[k])
		}
		out = append(out, b.String())
	}
	return out
}

// TestTraceJSONLDeterministic pins trace determinism: two discoveries
// over the same corpus emit the same event sequence once the timestamp
// and run-id fields are stripped. The golden corpora never reach the
// level precompute; the wide table does, so its product workers must
// leave the sequence alone too (their worker_spawn event is emitted
// from the traversal).
func TestTraceJSONLDeterministic(t *testing.T) {
	cases := goldenCases()
	wide := cases[0]
	wide.slug, wide.ds, wide.opts = "wide", xmlgen.Wide(xmlgen.DefaultWide(10)), nil
	for _, c := range append(cases, wide) {
		t.Run(c.slug, func(t *testing.T) {
			runOnce := func() []string {
				opts := discoverxfd.Options{}
				if c.opts != nil {
					opts = *c.opts
				}
				var events bytes.Buffer
				opts.Trace = discoverxfd.NewJSONLTracer(&events)
				if _, err := discoverxfd.NewEngine(&opts).Discover(context.Background(), c.ds.Tree, c.ds.Schema); err != nil {
					t.Fatalf("%s: %v", c.ds.Name, err)
				}
				return stripVolatile(t, events.Bytes())
			}
			first, second := runOnce(), runOnce()
			if len(first) != len(second) {
				t.Fatalf("%s: event counts differ between identical serial runs: %d vs %d",
					c.ds.Name, len(first), len(second))
			}
			for i := range first {
				if first[i] != second[i] {
					t.Fatalf("%s: event %d differs between identical serial runs:\n  first:  %s\n  second: %s",
						c.ds.Name, i+1, first[i], second[i])
				}
			}
		})
	}
}

// diffHint locates the first differing line for a readable failure.
func diffHint(want, got []byte) string {
	wl := bytes.Split(want, []byte("\n"))
	gl := bytes.Split(got, []byte("\n"))
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			return fmt.Sprintf("first difference at line %d:\n  golden: %s\n  got:    %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("length differs: golden %d lines, got %d lines", len(wl), len(gl))
}

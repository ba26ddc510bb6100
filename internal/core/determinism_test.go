package core

import (
	"testing"

	"discoverxfd/internal/relation"
	"discoverxfd/internal/xmlgen"
)

// TestDiscoveryDeterministic runs discovery repeatedly, on psd and on
// a table whose levels reach the precompute gate, and requires
// byte-identical rendered output: map iteration order inside the
// engine and the product workers' scheduling must never leak into
// results.
func TestDiscoveryDeterministic(t *testing.T) {
	for _, ds := range []xmlgen.Dataset{xmlgen.PSD(xmlgen.DefaultPSD()), xmlgen.Wide(xmlgen.DefaultWide(10))} {
		h, err := relation.Build(ds.Tree, ds.Schema, relation.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var first string
		for i := 0; i < 4; i++ {
			res, err := discoverCold(h, Options{ApproxError: 0.05})
			if err != nil {
				t.Fatal(err)
			}
			out := render(res)
			if i == 0 {
				first = out
				continue
			}
			if out != first {
				t.Fatalf("%s: run %d differs:\n--- first ---\n%s\n--- now ---\n%s", ds.Name, i, first, out)
			}
		}
	}
}

// TestApproxOrderDeterministic locks in the canonical emission order
// of the approximate pass: discoverApprox walks the partition cache
// in sorted attribute-set order, so the rendered output (including
// the ApproxFDs section) must be byte-identical across every knob
// that could plausibly reorder it — cache eviction pressure and the
// naive baseline engine.
func TestApproxOrderDeterministic(t *testing.T) {
	ds := xmlgen.PSD(xmlgen.DefaultPSD())
	h, err := relation.Build(ds.Tree, ds.Schema, relation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []Options{
		{ApproxError: 0.05},
		{ApproxError: 0.05, MaxPartitionBytes: 1 << 12},
		{ApproxError: 0.05, NaivePartitions: true},
	}
	var first string
	for i, opts := range cases {
		res, err := discoverCold(h, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.ApproxFDs) == 0 {
			t.Fatalf("case %d: expected approximate FDs from the PSD dataset", i)
		}
		out := render(res)
		if i == 0 {
			first = out
			continue
		}
		if out != first {
			t.Fatalf("case %d (%+v) differs:\n--- first ---\n%s\n--- now ---\n%s", i, opts, first, out)
		}
	}
}

// TestRebuildDeterministic checks that rebuilding the hierarchy from
// the same document yields the same discovery output (encoder interning
// order must not leak).
func TestRebuildDeterministic(t *testing.T) {
	ds := xmlgen.Warehouse(xmlgen.DefaultWarehouse())
	var first string
	for i := 0; i < 3; i++ {
		h, err := relation.Build(ds.Tree, ds.Schema, relation.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := discoverCold(h, Options{})
		if err != nil {
			t.Fatal(err)
		}
		out := render(res)
		if i == 0 {
			first = out
		} else if out != first {
			t.Fatalf("rebuild %d differs", i)
		}
	}
}

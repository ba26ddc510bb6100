package anomaly

import (
	"reflect"
	"strings"
	"testing"

	"discoverxfd/internal/core"
	"discoverxfd/internal/datatree"
	"discoverxfd/internal/relation"
	"discoverxfd/internal/schema"
	"discoverxfd/internal/xmlgen"
)

// cleanXML satisfies {./sku} -> ./name; dirtyXML is the same document
// after a careless update of ONE copy of the Pen name.
const cleanXML = `
<shop>
  <item><sku>1</sku><name>Pen</name></item>
  <item><sku>1</sku><name>Pen</name></item>
  <item><sku>2</sku><name>Pad</name></item>
</shop>`

const dirtyXML = `
<shop>
  <item><sku>1</sku><name>Gel Pen</name></item>
  <item><sku>1</sku><name>Pen</name></item>
  <item><sku>2</sku><name>Pad</name></item>
</shop>`

func build(t *testing.T, xml string) *relation.Hierarchy {
	t.Helper()
	tree, err := datatree.ParseXMLString(xml)
	if err != nil {
		t.Fatal(err)
	}
	s, err := datatree.InferSchema(tree)
	if err != nil {
		t.Fatal(err)
	}
	h, err := relation.Build(tree, s, relation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func constraints(t *testing.T, lines string) []core.Constraint {
	t.Helper()
	cs, err := core.ParseConstraints(lines)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

func TestDetectCleanDocument(t *testing.T) {
	h := build(t, cleanXML)
	vs, err := Detect(h, constraints(t, `{./sku} -> ./name w.r.t. C(/shop/item)`))
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("clean document reported violations: %v", vs)
	}
}

func TestDetectUpdateAnomaly(t *testing.T) {
	h := build(t, dirtyXML)
	vs, err := Detect(h, constraints(t, `{./sku} -> ./name w.r.t. C(/shop/item)`))
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || len(vs[0].Conflicts) != 1 {
		t.Fatalf("expected exactly one violation with one conflict: %v", vs)
	}
	occ := vs[0].Conflicts[0].Occurrences
	if len(occ) != 2 {
		t.Fatalf("conflict should name both copies: %v", occ)
	}
	values := []string{occ[0].Value, occ[1].Value}
	if !(contains(values, "Pen") && contains(values, "Gel Pen")) {
		t.Fatalf("conflicting values wrong: %v", values)
	}
	// The report names the pivot nodes.
	s := vs[0].String()
	if !strings.Contains(s, "Gel Pen") || !strings.Contains(s, "node ") {
		t.Fatalf("report: %s", s)
	}
}

func TestDetectKeyViolation(t *testing.T) {
	h := build(t, cleanXML)
	vs, err := Detect(h, constraints(t, `{./sku} KEY of C(/shop/item)`))
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 {
		t.Fatalf("duplicated sku must violate the key: %v", vs)
	}
	if got := len(vs[0].Conflicts[0].Occurrences); got != 2 {
		t.Fatalf("key conflict should list both duplicates, got %d", got)
	}
}

func TestAdviseCompanions(t *testing.T) {
	h := build(t, cleanXML)
	rel := h.ByPivot("/shop/item")
	fd := core.FD{Class: "/shop/item", LHS: []schema.RelPath{"./sku"}, RHS: "./name"}
	// Tuple 0 is the first sku-1 item; its companion is tuple 1.
	occ, err := Advise(h, fd, rel.Keys[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(occ) != 1 || occ[0].PivotKey != rel.Keys[1] || occ[0].Value != "Pen" {
		t.Fatalf("Advise: %v", occ)
	}
	// The sku-2 item has no companions.
	occ, err = Advise(h, fd, rel.Keys[2])
	if err != nil {
		t.Fatal(err)
	}
	if len(occ) != 0 {
		t.Fatalf("unique sku should have no companions: %v", occ)
	}
	// Unknown pivot key errors.
	if _, err := Advise(h, fd, 9999); err == nil {
		t.Fatal("unknown pivot key should error")
	}
}

func TestDetectSetRHSConflict(t *testing.T) {
	// Author sets differ for one ISBN after a bad edit.
	h := build(t, `
<lib>
  <b><isbn>1</isbn><a>X</a><a>Y</a></b>
  <b><isbn>1</isbn><a>Y</a></b>
</lib>`)
	vs, err := Detect(h, constraints(t, `{./isbn} -> ./a w.r.t. C(/lib/b)`))
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 {
		t.Fatalf("set-RHS conflict not detected: %v", vs)
	}
	occ := vs[0].Conflicts[0].Occurrences
	if len(occ) != 2 || !(strings.Contains(occ[0].Value, "+") || strings.Contains(occ[1].Value, "+")) {
		t.Fatalf("set values should render all members: %v", occ)
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// keyCollisionsOracle is the per-tuple loop core.KeyCollisions
// replaced: each tuple asks Companions for the tuples sharing its key
// LHS, and a group is emitted at its smallest tuple.
func keyCollisionsOracle(h *relation.Hierarchy, class schema.Path, lhs []schema.RelPath) ([][]int, error) {
	rel := h.ByPivot(class)
	var out [][]int
	for t := 0; t < rel.NRows(); t++ {
		comp, err := core.Companions(h, class, lhs, rel.Attrs[0].Rel, t)
		if err != nil {
			return nil, err
		}
		if len(comp) > 0 && minOf(comp) > t {
			out = append(out, append([]int{t}, comp...))
		}
	}
	return out, nil
}

func minOf(xs []int) int {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// nestedXML has missing values at both levels, so some tuples are
// vacuous for an LHS that reaches the parent.
const nestedXML = `
<shop>
  <dept><name>A</name>
    <item><sku>1</sku><color>red</color></item>
    <item><sku>1</sku></item>
    <item><sku>2</sku><color>red</color></item>
    <item><sku>1</sku><color>red</color></item>
  </dept>
  <dept><name>A</name>
    <item><sku>1</sku><color>red</color></item>
  </dept>
  <dept>
    <item><sku>1</sku><color>blue</color></item>
    <item><sku>1</sku><color>blue</color></item>
  </dept>
</shop>`

// keyLHSs lists candidate key LHSs of rel: each attribute alone, each
// pair, and each attribute with each attribute of the parent relation.
func keyLHSs(rel *relation.Relation) [][]schema.RelPath {
	var out [][]schema.RelPath
	for i, a := range rel.Attrs {
		out = append(out, []schema.RelPath{a.Rel})
		for _, b := range rel.Attrs[i+1:] {
			out = append(out, []schema.RelPath{a.Rel, b.Rel})
		}
		if rel.Parent == nil {
			continue
		}
		for _, p := range rel.Parent.Attrs {
			up := schema.RelPath("..")
			if p.Rel != "." {
				up = "." + p.Rel
			}
			out = append(out, []schema.RelPath{a.Rel, up})
		}
	}
	return out
}

// TestKeyCollisionsMatchPerTupleOracle requires the one-pass collision
// groups to be the per-tuple loop's, group for group and in order, over
// every relation of three documents and the candidate LHSs of keyLHSs.
func TestKeyCollisionsMatchPerTupleOracle(t *testing.T) {
	wide := xmlgen.Wide(xmlgen.WideParams{Rows: 300, Attrs: 4, Domain: 4, Seed: 3})
	wh := xmlgen.Warehouse(xmlgen.DefaultWarehouse())
	docs := []struct {
		name string
		h    *relation.Hierarchy
	}{
		{"nested", build(t, nestedXML)},
		{"warehouse", buildDataset(t, wh)},
		{"wide", buildDataset(t, wide)},
	}
	for _, d := range docs {
		checked := 0
		for _, rel := range d.h.Relations {
			if rel.NAttrs() == 0 {
				continue
			}
			for _, lhs := range keyLHSs(rel) {
				got, err := core.KeyCollisions(d.h, rel.Pivot, lhs)
				want, werr := keyCollisionsOracle(d.h, rel.Pivot, lhs)
				if (err != nil) != (werr != nil) {
					t.Fatalf("%s %s %v: error %v, oracle error %v", d.name, rel.Pivot, lhs, err, werr)
				}
				if len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s %v:\ngot  %v\nwant %v", d.name, rel.Pivot, lhs, got, want)
				}
				if len(want) > 0 {
					checked++
				}
			}
		}
		if checked == 0 {
			t.Errorf("%s: no candidate key had a collision; the comparison decided nothing", d.name)
		}
	}
}

func buildDataset(t *testing.T, ds xmlgen.Dataset) *relation.Hierarchy {
	t.Helper()
	h, err := relation.Build(ds.Tree, ds.Schema, relation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestDetectKeyAllocs bounds the allocations of checking one key over
// 2,000 tuples with every tuple in a collision: one pass over the
// class plus the rendering of each colliding tuple. Asking for each
// tuple's companions in turn rebuilt every group per tuple, millions
// of allocations here.
func TestDetectKeyAllocs(t *testing.T) {
	const rows = 2000
	h := buildDataset(t, xmlgen.Wide(xmlgen.WideParams{Rows: rows, Attrs: 4, Domain: 6, Seed: 1}))
	cs := constraints(t, `{./a1, ./a2} KEY of C(/table/row)`)
	var vs []Violation
	allocs := testing.AllocsPerRun(2, func() {
		var err error
		if vs, err = Detect(h, cs); err != nil {
			t.Fatal(err)
		}
	})
	tuples := 0
	for _, c := range vs[0].Conflicts {
		tuples += len(c.Occurrences)
	}
	if tuples != rows {
		t.Fatalf("%d of %d tuples in collisions; the bound assumes all", tuples, rows)
	}
	if limit := float64(10 * rows); allocs > limit {
		t.Fatalf("Detect on one key allocated %.0f times for %d tuples, want at most %.0f", allocs, rows, limit)
	}
}

package jsondoc

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"discoverxfd/internal/datatree"
	"discoverxfd/internal/schema"
	"discoverxfd/internal/xmlgen"
)

// mustParse parses a JSON document or fails the test.
func mustParse(t *testing.T, src string) *datatree.Tree {
	t.Helper()
	tree, err := ParseString(src)
	if err != nil {
		t.Fatalf("ParseString(%q): %v", src, err)
	}
	return tree
}

// inferConform asserts the documented invariant that an inferred
// schema accepts its own tree, and returns the schema.
func inferConform(t *testing.T, tree *datatree.Tree) *schema.Schema {
	t.Helper()
	s, err := datatree.InferSchema(tree)
	if err != nil {
		t.Fatalf("InferSchema: %v", err)
	}
	if err := datatree.Conform(tree, s); err != nil {
		t.Fatalf("inferred schema rejects its own tree: %v\nschema:\n%s\ntree:\n%s", err, s, tree)
	}
	return s
}

func TestParseRootSelection(t *testing.T) {
	// A single object-valued member names the root element.
	tree := mustParse(t, `{"warehouse": {"a": "x"}}`)
	if tree.Root.Label != "warehouse" {
		t.Fatalf("root = %q, want warehouse", tree.Root.Label)
	}
	if c := tree.Root.Child("a"); c == nil || c.Value != "x" {
		t.Fatalf("child a missing or wrong: %v", c)
	}

	// Several members land under the synthetic root.
	tree = mustParse(t, `{"a": 1, "b": 2}`)
	if tree.Root.Label != SyntheticRoot {
		t.Fatalf("root = %q, want %q", tree.Root.Label, SyntheticRoot)
	}

	// A single scalar- or array-valued member also stays synthetic.
	tree = mustParse(t, `{"a": [1, 2]}`)
	if tree.Root.Label != SyntheticRoot || len(tree.Root.ChildrenLabeled("a")) != 2 {
		t.Fatalf("array-valued single member mis-rooted: %s", tree)
	}

	// A top-level array becomes item children of the synthetic root.
	tree = mustParse(t, `[{"x": 1}, {"x": 2}]`)
	if tree.Root.Label != SyntheticRoot || len(tree.Root.ChildrenLabeled(ItemLabel)) != 2 {
		t.Fatalf("top-level array mis-rooted: %s", tree)
	}
}

// TestParseRootDemotion pins the tricky decoder-lookahead case: the
// first member parses as the root candidate, then a second member
// forces it under the synthetic root — and the hints its subtree
// recorded must move with it.
func TestParseRootDemotion(t *testing.T) {
	tree := mustParse(t, `{"a": {"xs": [5]}, "b": 1}`)
	if tree.Root.Label != SyntheticRoot {
		t.Fatalf("root = %q, want %q", tree.Root.Label, SyntheticRoot)
	}
	hinted := schema.PathOf(SyntheticRoot, "a", "xs")
	if !tree.SetHinted(hinted) {
		t.Fatalf("hint not re-anchored; hints = %v", tree.SetHints())
	}
	s := inferConform(t, tree)
	el, err := s.Resolve(hinted)
	if err != nil || !el.Repeatable {
		t.Fatalf("demoted singleton array not inferred as set: %v (err %v)", s, err)
	}
}

func TestParseSingletonArrayHint(t *testing.T) {
	tree := mustParse(t, `{"r": {"xs": [5]}}`)
	s := inferConform(t, tree)
	el, err := s.Resolve(schema.PathOf("r", "xs"))
	if err != nil {
		t.Fatal(err)
	}
	if !el.Repeatable {
		t.Fatalf("singleton JSON array must infer as a set element:\n%s", s)
	}
	if el.Payload.Kind != schema.Int {
		t.Fatalf("xs payload = %v, want int", el.Payload.Kind)
	}
}

func TestParseEmptyShapes(t *testing.T) {
	// Empty array: the member is missing entirely.
	tree := mustParse(t, `{"r": {"xs": [], "y": 1}}`)
	if tree.Root.Child("xs") != nil {
		t.Fatalf("empty array produced a node: %s", tree)
	}
	s := inferConform(t, tree)
	if _, err := s.Resolve(schema.PathOf("r", "xs")); err == nil {
		t.Fatalf("empty array leaked into the schema:\n%s", s)
	}

	// Empty object: a present, childless, valueless node.
	tree = mustParse(t, `{"r": {"o": {}, "y": 1}}`)
	o := tree.Root.Child("o")
	if o == nil || o.HasValue || len(o.Children) != 0 {
		t.Fatalf("empty object node wrong: %v", o)
	}
	inferConform(t, tree)

	// Empty top-level object.
	tree = mustParse(t, `{}`)
	if tree.Root.Label != SyntheticRoot || tree.Size() != 1 {
		t.Fatalf("empty document mis-parsed: %s", tree)
	}
	inferConform(t, tree)
}

func TestParseNullVersusMissing(t *testing.T) {
	tree := mustParse(t, `{"r": {"rows": [{"a": 1, "b": null}, {"a": 2}]}}`)
	rows := tree.Root.ChildrenLabeled("rows")
	if len(rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(rows))
	}
	b := rows[0].Child("b")
	if b == nil {
		t.Fatal("explicit null must produce a present node")
	}
	if b.HasValue {
		t.Fatalf("null node carries a value %q", b.Value)
	}
	if rows[1].Child("b") != nil {
		t.Fatal("missing member must not produce a node")
	}
	// The null'd key still shapes the schema; its type comes from
	// nowhere, so it defaults to str.
	s := inferConform(t, tree)
	el, err := s.Resolve(schema.PathOf("r", "rows", "b"))
	if err != nil {
		t.Fatalf("present-but-null member missing from schema: %v\n%s", err, s)
	}
	if el.Payload.Kind != schema.String {
		t.Fatalf("b payload = %v, want str", el.Payload.Kind)
	}
}

func TestParseHeterogeneousArray(t *testing.T) {
	// Scalars mixed with records at one path: the scalars normalize to
	// records carrying their value under @text, the XML mixed-content
	// convention, so the inferred schema accepts the tree.
	tree := mustParse(t, `{"r": {"xs": [1, {"a": 2}, "s"]}}`)
	xs := tree.Root.ChildrenLabeled("xs")
	if len(xs) != 3 {
		t.Fatalf("want 3 members, got %d", len(xs))
	}
	for i, want := range []string{"1", "", "s"} {
		n := xs[i]
		if n.HasValue {
			t.Fatalf("member %d kept a direct value %q after normalization", i, n.Value)
		}
		if want == "" {
			continue
		}
		txt := n.Child(datatree.TextLabel)
		if txt == nil || txt.Value != want {
			t.Fatalf("member %d @text = %v, want %q", i, txt, want)
		}
	}
	inferConform(t, tree)

	// Scalar-only heterogeneous arrays just widen the leaf type.
	tree = mustParse(t, `{"r": {"xs": [1, "x", 2.5]}}`)
	s := inferConform(t, tree)
	el, _ := s.Resolve(schema.PathOf("r", "xs"))
	if el.Payload.Kind != schema.String {
		t.Fatalf("mixed scalars should widen to str, got %v", el.Payload.Kind)
	}
}

// TestParseCascadingNormalization pins the fixpoint: converting a
// scalar into an @text leaf can itself collide with record-valued
// "@text" members from the data, one level down.
func TestParseCascadingNormalization(t *testing.T) {
	tree := mustParse(t, `{"r": {"xs": [{"@text": {"x": 1}}, "scalar"]}}`)
	inferConform(t, tree)
}

func TestParseDeeplyNestedMixedShapes(t *testing.T) {
	src := `{"r": {
		"m": [[1, 2], [3]],
		"g": [{"rows": [{"cells": [{"v": 1}, {"v": null}]}, {"cells": []}]}],
		"solo": {"deep": {"deeper": [true, false]}}
	}}`
	tree := mustParse(t, src)
	s := inferConform(t, tree)

	// Nested arrays wrap their members in "item" records.
	m, err := s.Resolve(schema.PathOf("r", "m"))
	if err != nil || !m.Repeatable || m.Payload.Kind != schema.Record {
		t.Fatalf("m = %+v (err %v), want repeatable record", m, err)
	}
	item, err := s.Resolve(schema.PathOf("r", "m", ItemLabel))
	if err != nil || !item.Repeatable || item.Payload.Kind != schema.Int {
		t.Fatalf("m/item = %+v (err %v), want repeatable int", item, err)
	}
	cells, err := s.Resolve(schema.PathOf("r", "g", "rows", "cells"))
	if err != nil || !cells.Repeatable {
		t.Fatalf("g/rows/cells = %+v (err %v), want repeatable", cells, err)
	}
	deeper, err := s.Resolve(schema.PathOf("r", "solo", "deep", "deeper"))
	if err != nil || !deeper.Repeatable || deeper.Payload.Kind != schema.String {
		t.Fatalf("solo/deep/deeper = %+v (err %v), want repeatable str (booleans)", deeper, err)
	}
}

func TestParseScalarLiterals(t *testing.T) {
	tree := mustParse(t, `{"r": {"f": 1.50, "i": 42, "e": 1e3, "b": true, "s": "x y"}}`)
	want := map[string]string{"f": "1.50", "i": "42", "e": "1e3", "b": "true", "s": "x y"}
	for label, v := range want {
		n := tree.Root.Child(label)
		if n == nil || n.Value != v {
			t.Fatalf("%s = %v, want value %q (literals must be kept verbatim)", label, n, v)
		}
	}
	s := inferConform(t, tree)
	kinds := map[string]schema.Kind{"f": schema.Float, "i": schema.Int, "e": schema.Float, "b": schema.String, "s": schema.String}
	for label, k := range kinds {
		el, err := s.Resolve(schema.PathOf("r", label))
		if err != nil || el.Payload.Kind != k {
			t.Fatalf("%s kind = %v (err %v), want %v", label, el.Payload.Kind, err, k)
		}
	}
}

func TestParseDuplicateKeysBecomeSets(t *testing.T) {
	tree := mustParse(t, `{"r": {"a": 1, "a": 2}}`)
	if n := len(tree.Root.ChildrenLabeled("a")); n != 2 {
		t.Fatalf("want 2 children for duplicate key, got %d", n)
	}
	s := inferConform(t, tree)
	el, err := s.Resolve(schema.PathOf("r", "a"))
	if err != nil || !el.Repeatable {
		t.Fatalf("duplicate keys must infer as a set: %+v (err %v)", el, err)
	}
}

func TestParseRejectsBadInput(t *testing.T) {
	bad := []string{
		`42`,                          // top-level scalar
		`"x"`,                         // top-level string
		``,                            // empty input
		`{"a": 1} {"b": 2}`,           // trailing data
		`{"a": 1,}`,                   // malformed JSON
		`{"": 1}`,                     // empty label
		`{"r": {".": 1}}`,             // path syntax
		`{"r": {"a/b": 1}}`,           // path separator
		`{"r": {"a:b": 1}}`,           // schema notation separator
		`{"r": {"a b": 1}}`,           // whitespace
		`{"r": {"#c": 1}}`,            // schema comment
		`{"r": {"a,b": 1}}`,           // constraint-notation separator
		`{"r": {"a{b": 1}}`,           // constraint-notation brace
		"{\"r\": {\"a\\u0000b\": 1}}", // control character
	}
	for _, src := range bad {
		if _, err := ParseString(src); err == nil {
			t.Errorf("ParseString(%q) succeeded, want error", src)
		}
	}
}

func TestParseLimits(t *testing.T) {
	deep := `{"r": {"a": {"b": {"c": {"d": 1}}}}}`
	if _, err := ParseContext(context.Background(), strings.NewReader(deep), datatree.ParseLimits{MaxDepth: 3}); err == nil {
		t.Error("MaxDepth not enforced")
	}
	if _, err := ParseContext(context.Background(), strings.NewReader(deep), datatree.ParseLimits{MaxDepth: 10}); err != nil {
		t.Errorf("MaxDepth 10 should admit depth-5 document: %v", err)
	}
	wide := `{"r": {"xs": [1, 2, 3, 4, 5, 6, 7, 8]}}`
	if _, err := ParseContext(context.Background(), strings.NewReader(wide), datatree.ParseLimits{MaxNodes: 4}); err == nil {
		t.Error("MaxNodes not enforced")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var b strings.Builder
	b.WriteString(`{"r": {"xs": [`)
	for i := 0; i < 5000; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString("1")
	}
	b.WriteString(`]}}`)
	if _, err := ParseContext(ctx, strings.NewReader(b.String()), datatree.DefaultLimits()); err == nil {
		t.Error("cancellation not observed")
	}
}

func TestSniff(t *testing.T) {
	d := New()
	for _, src := range []string{`{"a":1}`, "  \n\t[1]"} {
		if !d.Sniff([]byte(src)) {
			t.Errorf("Sniff(%q) = false", src)
		}
	}
	for _, src := range []string{`<a/>`, "hello", ""} {
		if d.Sniff([]byte(src)) {
			t.Errorf("Sniff(%q) = true", src)
		}
	}
}

// editTree grafts a child under every inner node and adds one under
// every leaf, in pre-order, then prunes every third child of every
// node that had children before the edits.
func editTree(t *datatree.Tree) {
	var nodes []*datatree.Node
	t.Root.Walk(func(n *datatree.Node) bool { nodes = append(nodes, n); return true })
	var inner []*datatree.Node
	for i, n := range nodes {
		if n.IsLeaf() {
			n.AddLeaf("added", fmt.Sprint(i))
		} else {
			inner = append(inner, n)
			t.Graft(n, "grafted")
		}
	}
	for _, n := range inner {
		var prune []*datatree.Node
		for i, c := range n.Children {
			if i%3 == 2 {
				prune = append(prune, c)
			}
		}
		for _, c := range prune {
			t.Prune(c)
		}
	}
}

// TestEditsToParsedTreeStayLocal requires edits to a parsed tree to
// give the same tree as the same edits to the encoding/json oracle's
// tree, which is built node by node: appending to a child list carved
// from the parse's arena must not write into its neighbour's.
func TestEditsToParsedTreeStayLocal(t *testing.T) {
	docs := map[string][]byte{
		"warehouse": writeTwin(t, xmlgen.Warehouse(xmlgen.DefaultWarehouse())),
		"psd":       writeTwin(t, xmlgen.PSD(xmlgen.DefaultPSD())),
		"mixed":     []byte(`{"r": {"a": [1, {"b": 2}, [3, {"c": 4}], null], "d": {"e": "x"}}}`),
	}
	for name, doc := range docs {
		t.Run(name, func(t *testing.T) {
			parsed, err := Parse(bytes.NewReader(doc))
			if err != nil {
				t.Fatal(err)
			}
			built, err := parseDecoder(context.Background(), bytes.NewReader(doc), datatree.DefaultLimits())
			if err != nil {
				t.Fatal(err)
			}
			editTree(parsed)
			editTree(built)
			if got, want := parsed.String(), built.String(); got != want {
				t.Fatalf("edits to the parsed tree reached other nodes:\nparsed:\n%s\nbuilt node by node:\n%s", got, want)
			}
		})
	}
}

package core

import (
	"testing"

	"discoverxfd/internal/datatree"
	"discoverxfd/internal/relation"
	"discoverxfd/internal/schema"
)

// TestDiscoveryOverXMLAttributes checks that XML attributes (nodes
// labeled "@name") and mixed-content text ("@text") are first-class
// FD paths end to end: parsed, inferred, discovered, evaluated.
func TestDiscoveryOverXMLAttributes(t *testing.T) {
	tree, err := datatree.ParseXMLString(`
<catalog>
  <product sku="1" line="alpha">standard <b>x</b></product>
  <product sku="2" line="alpha">standard <b>y</b></product>
  <product sku="3" line="beta">premium <b>x</b></product>
  <product sku="4" line="beta">premium <b>z</b></product>
</catalog>`)
	if err != nil {
		t.Fatal(err)
	}
	s, err := datatree.InferSchema(tree)
	if err != nil {
		t.Fatal(err)
	}
	// @sku, @line and @text must all be leaf elements of product.
	for _, p := range []schema.Path{"/catalog/product/@sku", "/catalog/product/@line", "/catalog/product/@text"} {
		if el, err := s.Resolve(p); err != nil || !el.Payload.Kind.IsSimple() {
			t.Fatalf("attribute path %s not inferred as a leaf: %v", p, err)
		}
	}
	h, err := relation.Build(tree, s, relation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := discoverCold(h, Options{})
	if err != nil {
		t.Fatal(err)
	}

	product := schema.Path("/catalog/product")
	// @line determines the mixed-content tier text and vice versa.
	if !impliedFD(res, product, []schema.RelPath{"./@line"}, "./@text") {
		t.Errorf("@line -> @text not discovered: %v", res.FDs)
	}
	if !impliedFD(res, product, []schema.RelPath{"./@text"}, "./@line") {
		t.Errorf("@text -> @line not discovered: %v", res.FDs)
	}
	// @sku is a key.
	if !impliedKey(res, product, []schema.RelPath{"./@sku"}) {
		t.Errorf("@sku not discovered as key: %v", res.Keys)
	}

	// The notation round-trips @-paths.
	fd, err := ParseFD("{./@line} -> ./@text w.r.t. C(/catalog/product)")
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(h, fd.Class, fd.LHS, fd.RHS)
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Holds || ev.Witnesses != 2 {
		t.Fatalf("evaluation of @-path FD: %+v", ev)
	}
}

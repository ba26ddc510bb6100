package core

import (
	"fmt"
	"testing"

	"discoverxfd/internal/datatree"
	"discoverxfd/internal/relation"
	"discoverxfd/internal/schema"
)

// deepSchema nests five set elements; the deepest class can need LHS
// attributes from four distinct levels, which exercises chained
// partial propagation.
var deepSchema = schema.MustParse(`
root: Rcd
  l1: SetOf Rcd
    k1: str
    l2: SetOf Rcd
      k2: str
      l3: SetOf Rcd
        k3: str
        l4: SetOf Rcd
          k4: str
          val: str
`)

// buildDeep constructs data where val = f(k1,k2,k3,k4) and every
// proper subset of the four keys is ambiguous.
func buildDeep(t *testing.T) *relation.Hierarchy {
	t.Helper()
	f := func(a, b, c, d int) string {
		return fmt.Sprintf("v%d", (a+2*b+3*c+4*d)%5)
	}
	root := &datatree.Node{Label: "root"}
	for a := 0; a < 2; a++ {
		n1 := root.AddChild("l1")
		n1.AddLeaf("k1", fmt.Sprintf("a%d", a))
		for b := 0; b < 2; b++ {
			n2 := n1.AddChild("l2")
			n2.AddLeaf("k2", fmt.Sprintf("b%d", b))
			for c := 0; c < 2; c++ {
				n3 := n2.AddChild("l3")
				n3.AddLeaf("k3", fmt.Sprintf("c%d", c))
				for d := 0; d < 2; d++ {
					// Two duplicates per leaf so the full LHS is not a
					// key (the FD must indicate redundancy).
					for dup := 0; dup < 2; dup++ {
						n4 := n3.AddChild("l4")
						n4.AddLeaf("k4", fmt.Sprintf("d%d", d))
						n4.AddLeaf("val", f(a, b, c, d))
					}
				}
			}
		}
	}
	tree := datatree.NewTree(root)
	h, err := relation.Build(tree, deepSchema, relation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestFourLevelLHS requires an FD whose LHS spans four hierarchy
// levels — two chained partial propagations plus the final check.
func TestFourLevelLHS(t *testing.T) {
	h := buildDeep(t)
	class := schema.Path("/root/l1/l2/l3/l4")
	lhs := []schema.RelPath{"../../../k1", "../../k2", "../k3", "./k4"}

	ev, err := Evaluate(h, class, lhs, "./val")
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Holds || ev.LHSIsKey {
		t.Fatalf("construction broken: %+v", ev)
	}
	for drop := 0; drop < 4; drop++ {
		sub := append([]schema.RelPath(nil), lhs...)
		sub = append(sub[:drop], sub[drop+1:]...)
		ev, err := Evaluate(h, class, sub, "./val")
		if err != nil {
			t.Fatal(err)
		}
		if ev.Holds {
			t.Fatalf("subset %v should be ambiguous", sub)
		}
	}

	res, err := discoverCold(h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !impliedFD(res, class, lhs, "./val") {
		var got []string
		for _, fd := range res.FDs {
			if fd.Class == class && fd.RHS == "./val" {
				got = append(got, fd.String())
			}
		}
		t.Fatalf("four-level FD not discovered; val FDs: %v", got)
	}
}

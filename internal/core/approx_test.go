package core

import (
	"fmt"
	"testing"

	"discoverxfd/internal/datatree"
	"discoverxfd/internal/relation"
	"discoverxfd/internal/schema"
)

// buildDirty constructs a relation where a -> b holds for all but
// `dirty` of n rows.
func buildDirty(t *testing.T, n, dirty int) *relation.Hierarchy {
	t.Helper()
	root := &datatree.Node{Label: "db"}
	for i := 0; i < n; i++ {
		row := root.AddChild("row")
		a := fmt.Sprintf("a%d", i%5)
		b := fmt.Sprintf("b%d", i%5)
		if i < dirty {
			b = fmt.Sprintf("dirty%d", i)
		}
		row.AddLeaf("a", a)
		row.AddLeaf("b", b)
		row.AddLeaf("c", fmt.Sprintf("c%d", i)) // unique: a key
	}
	tree := datatree.NewTree(root)
	s := schema.MustParse("db: Rcd\n  row: SetOf Rcd\n    a: str\n    b: str\n    c: str")
	h, err := relation.Build(tree, s, relation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestApproximateFDDiscovery(t *testing.T) {
	h := buildDirty(t, 100, 4) // a -> b violated by 4 of 100 rows

	// Exact discovery must not report a -> b.
	res, err := discoverCold(h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	row := schema.Path("/db/row")
	if impliedFD(res, row, []schema.RelPath{"./a"}, "./b") {
		t.Fatal("dirty a -> b must not be exact")
	}
	if len(res.ApproxFDs) != 0 {
		t.Fatalf("approximate FDs reported without ApproxError: %v", res.ApproxFDs)
	}

	// With a 5% budget it appears as approximate with g3 = 0.04.
	res, err = discoverCold(h, Options{ApproxError: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, fd := range res.ApproxFDs {
		if fd.Class == row && fd.RHS == "./b" && len(fd.LHS) == 1 && fd.LHS[0] == "./a" {
			found = true
			if !fd.Approximate {
				t.Error("approximate flag not set")
			}
			if fd.Error < 0.039 || fd.Error > 0.041 {
				t.Errorf("g3 error = %v, want 0.04", fd.Error)
			}
		}
	}
	if !found {
		t.Fatalf("a -> b not found approximately: %v", res.ApproxFDs)
	}

	// With a 3% budget it must not appear.
	res, err = discoverCold(h, Options{ApproxError: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	for _, fd := range res.ApproxFDs {
		if fd.Class == row && fd.RHS == "./b" && len(fd.LHS) == 1 && fd.LHS[0] == "./a" {
			t.Fatalf("a -> b exceeds the 3%% budget but was reported")
		}
	}
}

func TestApproximateMatchesEvaluatorError(t *testing.T) {
	h := buildDirty(t, 80, 6)
	res, err := discoverCold(h, Options{ApproxError: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	for _, fd := range res.ApproxFDs {
		ev, err := Evaluate(h, fd.Class, fd.LHS, fd.RHS)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Holds {
			t.Errorf("approximate FD is actually exact: %s", fd)
		}
		if diff := ev.Error - fd.Error; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s: discovery g3 %v != evaluator g3 %v", fd, fd.Error, ev.Error)
		}
	}
	if len(res.ApproxFDs) == 0 {
		t.Fatal("expected approximate FDs at a 20% budget")
	}
}

func TestApproximateExcludesExactImplied(t *testing.T) {
	h := buildDirty(t, 60, 0) // clean: a -> b exact
	res, err := discoverCold(h, Options{ApproxError: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	row := schema.Path("/db/row")
	if !impliedFD(res, row, []schema.RelPath{"./a"}, "./b") {
		t.Fatal("clean a -> b must be exact")
	}
	for _, fd := range res.ApproxFDs {
		for _, e := range res.FDs {
			if e.Class == fd.Class && e.RHS == fd.RHS && relsSubset(e.LHS, fd.LHS) {
				t.Fatalf("approximate FD %s is implied by exact %s", fd, e)
			}
		}
	}
}

func TestEvaluationErrorOnExactFD(t *testing.T) {
	h := buildDirty(t, 50, 0)
	ev, err := Evaluate(h, "/db/row", []schema.RelPath{"./a"}, "./b")
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Holds || ev.Error != 0 {
		t.Fatalf("exact FD should have g3 = 0: %+v", ev)
	}
}

func TestApproxFDStringFormat(t *testing.T) {
	fd := FD{Class: "/db/row", LHS: []schema.RelPath{"./a"}, RHS: "./b", Approximate: true, Error: 0.04}
	want := "{./a} -> ./b w.r.t. C(/db/row) [approx, g3=0.040]"
	if fd.String() != want {
		t.Fatalf("String = %q, want %q", fd.String(), want)
	}
}

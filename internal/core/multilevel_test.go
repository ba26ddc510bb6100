package core

import (
	"fmt"
	"testing"

	"discoverxfd/internal/datatree"
	"discoverxfd/internal/relation"
	"discoverxfd/internal/schema"
)

// threeLevelSchema hosts an FD whose LHS must draw one attribute from
// each of three hierarchy levels, exercising partial propagation
// (Figure 9 lines 26–29) end to end.
var threeLevelSchema = schema.MustParse(`
org: Rcd
  region: SetOf Rcd
    rname: str
    site: SetOf Rcd
      sname: str
      machine: SetOf Rcd
        kind: str
        rack: str
`)

// buildThreeLevel constructs data where rack = f(rname, sname, kind)
// and every proper subset of {rname, sname, kind} fails to determine
// rack: the function's outputs collide unless all three inputs are
// known.
func buildThreeLevel(t *testing.T) *relation.Hierarchy {
	t.Helper()
	rack := func(r, s, k int) string {
		return fmt.Sprintf("rack%d", (r*2+s*3+k*5)%7)
	}
	root := &datatree.Node{Label: "org"}
	for r := 0; r < 3; r++ {
		region := root.AddChild("region")
		region.AddLeaf("rname", fmt.Sprintf("R%d", r))
		for s := 0; s < 3; s++ {
			site := region.AddChild("site")
			site.AddLeaf("sname", fmt.Sprintf("S%d", s))
			for k := 0; k < 3; k++ {
				m := site.AddChild("machine")
				m.AddLeaf("kind", fmt.Sprintf("K%d", k))
				m.AddLeaf("rack", rack(r, s, k))
				// A duplicate machine per (r,s,k) makes the full LHS
				// a non-key, so the FD indicates redundancy and is
				// reported.
				d := site.AddChild("machine")
				d.AddLeaf("kind", fmt.Sprintf("K%d", k))
				d.AddLeaf("rack", rack(r, s, k))
			}
		}
	}
	tree := datatree.NewTree(root)
	h, err := relation.Build(tree, threeLevelSchema, relation.Options{})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return h
}

// TestThreeLevelLHS verifies that an FD spanning three hierarchy
// levels is discovered via partial target propagation.
func TestThreeLevelLHS(t *testing.T) {
	h := buildThreeLevel(t)
	machine := schema.Path("/org/region/site/machine")
	lhs := []schema.RelPath{"../../rname", "../sname", "./kind"}

	// Ground truth via the evaluator.
	ev, err := Evaluate(h, machine, lhs, "./rack")
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Holds || ev.LHSIsKey {
		t.Fatalf("construction broken: holds=%v key=%v", ev.Holds, ev.LHSIsKey)
	}
	for drop := 0; drop < 3; drop++ {
		sub := append([]schema.RelPath(nil), lhs...)
		sub = append(sub[:drop], sub[drop+1:]...)
		ev, err := Evaluate(h, machine, sub, "./rack")
		if err != nil {
			t.Fatal(err)
		}
		if ev.Holds {
			t.Fatalf("subset %v should not determine ./rack", sub)
		}
	}

	res, err := discoverCold(h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !impliedFD(res, machine, lhs, "./rack") {
		var got []string
		for _, fd := range res.FDs {
			if fd.Class == machine && fd.RHS == "./rack" {
				got = append(got, fd.String())
			}
		}
		t.Fatalf("three-level FD not discovered; rack FDs found: %v", got)
	}
}

// TestMaxLHSBound checks that the per-level LHS bound is honored.
func TestMaxLHSBound(t *testing.T) {
	h := buildThreeLevel(t)
	res, err := discoverCold(h, Options{MaxLHS: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, fd := range res.FDs {
		perLevel := map[int]int{}
		for _, p := range fd.LHS {
			ups := 0
			s := string(p)
			for len(s) >= 2 && s[0] == '.' && s[1] == '.' {
				ups++
				if len(s) > 3 {
					s = s[3:]
				} else {
					s = ""
				}
			}
			perLevel[ups]++
		}
		for lvl, n := range perLevel {
			if n > 1 {
				t.Fatalf("FD %s draws %d attrs from level -%d despite MaxLHS=1", fd, n, lvl)
			}
		}
	}
}

// TestPruningAblationPreservesFDs checks the E6 invariant: disabling
// pruning rules never changes which redundancy-indicating FDs are
// found — pruning only avoids work (and the reporting of FDs with
// superkey LHSs, which the superkey filter removes in all variants).
func TestPruningAblationPreservesFDs(t *testing.T) {
	h := buildThreeLevel(t)
	base, err := discoverCold(h, Options{MaxLHS: 3})
	if err != nil {
		t.Fatal(err)
	}
	variants := []Options{
		{MaxLHS: 3, DisableKeyPruning: true},
		{MaxLHS: 3, DisableFDPruning: true},
		{MaxLHS: 3, DisableKeyPruning: true, DisableFDPruning: true},
	}
	baseSet := map[string]bool{}
	for _, fd := range base.FDs {
		baseSet[fd.String()] = true
	}
	for i, opts := range variants {
		res, err := discoverCold(h, opts)
		if err != nil {
			t.Fatal(err)
		}
		// Every baseline FD must still be implied.
		for _, fd := range base.FDs {
			if !impliedFD(res, fd.Class, fd.LHS, fd.RHS) {
				t.Errorf("variant %d lost FD %s", i, fd)
			}
		}
		// Every variant FD must hold (soundness under ablation).
		for _, fd := range res.FDs {
			ev, err := Evaluate(h, fd.Class, fd.LHS, fd.RHS)
			if err != nil {
				t.Fatal(err)
			}
			if !ev.Holds {
				t.Errorf("variant %d unsound FD %s", i, fd)
			}
		}
	}
}

// TestIntraOnlySkipsInterFDs checks NoInterRelation finds no
// inter-relation results.
func TestIntraOnlySkipsInterFDs(t *testing.T) {
	h := buildThreeLevel(t)
	res, err := discoverCold(h, Options{NoInterRelation: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, fd := range res.FDs {
		if fd.Inter {
			t.Fatalf("intra-only discovery produced inter FD %s", fd)
		}
	}
	for _, k := range res.Keys {
		if k.Inter {
			t.Fatalf("intra-only discovery produced inter key %s", k)
		}
	}
	if res.Stats.TargetsCreated != 0 {
		t.Fatalf("intra-only discovery created %d targets", res.Stats.TargetsCreated)
	}
}

// TestTooManyAttributes checks the 64-attribute guard.
func TestTooManyAttributes(t *testing.T) {
	root := &datatree.Node{Label: "t"}
	row := root.AddChild("r")
	text := "t: Rcd\n  r: SetOf Rcd\n"
	for i := 0; i < 70; i++ {
		text += fmt.Sprintf("    a%d: str\n", i)
		row.AddLeaf(fmt.Sprintf("a%d", i), "v")
	}
	root.AddChild("r").AddLeaf("a0", "w")
	tree := datatree.NewTree(root)
	s := schema.MustParse(text)
	h, err := relation.Build(tree, s, relation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := discoverCold(h, Options{}); err == nil {
		t.Fatal("expected an error for >64 attributes")
	}
}

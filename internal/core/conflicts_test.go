package core

import (
	"strings"
	"testing"

	"discoverxfd/internal/schema"
)

func TestEvaluateConflicts(t *testing.T) {
	h := evalHierarchy(t, `
<w><g><gx>1</gx>
  <c><a>x</a><b>p</b></c>
  <c><a>x</a><b>q</b></c>
  <c><a>y</a><b>r</b></c>
  <c><a>y</a><b>r</b></c>
</g></w>`, evalSchema)
	groups, err := EvaluateConflicts(h, "/w/g/c", []schema.RelPath{"./a"}, "./b")
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 1 || len(groups[0].Tuples) != 2 {
		t.Fatalf("conflicts: %v", groups)
	}
	// Agreeing groups are not conflicts; holds-case returns empty.
	groups, err = EvaluateConflicts(h, "/w/g/c", []schema.RelPath{"./a", "./b"}, "./a")
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 0 {
		t.Fatalf("expected no conflicts: %v", groups)
	}
	// Errors propagate.
	if _, err := EvaluateConflicts(h, "/w/nope", []schema.RelPath{"./a"}, "./b"); err == nil ||
		!strings.Contains(err.Error(), "no tuple class") {
		t.Fatalf("unknown class: %v", err)
	}
}

func TestCompanionsCore(t *testing.T) {
	h := evalHierarchy(t, `
<w><g><gx>1</gx>
  <c><a>x</a><b>p</b></c>
  <c><a>x</a><b>p</b></c>
  <c><a>y</a><b>q</b></c>
  <c><b>z</b></c>
</g></w>`, evalSchema)
	comp, err := Companions(h, "/w/g/c", []schema.RelPath{"./a"}, "./b", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp) != 1 || comp[0] != 1 {
		t.Fatalf("companions of tuple 0: %v", comp)
	}
	// A tuple with a missing LHS value is vacuous: no companions.
	comp, err = Companions(h, "/w/g/c", []schema.RelPath{"./a"}, "./b", 3)
	if err != nil {
		t.Fatal(err)
	}
	if comp != nil {
		t.Fatalf("vacuous tuple should have no companions: %v", comp)
	}
}

func TestRedundancyString(t *testing.T) {
	r := Redundancy{
		FD:              FD{Class: "/w/g/c", LHS: []schema.RelPath{"./a"}, RHS: "./b"},
		RedundantValues: 3,
		Groups:          2,
	}
	s := r.String()
	if !strings.Contains(s, "3 redundant value(s) in 2 group(s)") {
		t.Fatalf("Redundancy.String: %q", s)
	}
}

func TestDiscoverRelationDirect(t *testing.T) {
	h := evalHierarchy(t, `
<w><g><gx>1</gx>
  <c><a>x</a><b>p</b></c>
  <c><a>x</a><b>p</b></c>
  <c><a>y</a><b>q</b></c>
</g></w>`, evalSchema)
	rel := h.ByPivot("/w/g/c")
	fds, keys, stats, err := DiscoverRelation(rel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Relations != 1 || stats.Tuples != 3 {
		t.Fatalf("stats: %+v", stats)
	}
	found := false
	for _, fd := range fds {
		if fd.RHS == "./b" && len(fd.LHS) == 1 && fd.LHS[0] == "./a" {
			found = true
		}
	}
	if !found {
		t.Fatalf("a -> b not found: %v (keys %v)", fds, keys)
	}
}

func TestOptionDefaults(t *testing.T) {
	var o Options
	if o.maxPartialAttrs() != 2 || o.maxTargets() != 1<<16 {
		t.Fatal("defaults wrong")
	}
	o = Options{MaxPartialAttrs: 3, MaxTargetsPerRelation: 20}
	if o.maxPartialAttrs() != 3 || o.maxTargets() != 20 {
		t.Fatal("overrides ignored")
	}
}

func TestConstraintStringForms(t *testing.T) {
	c := Constraint{FD: FD{Class: "/a/b", LHS: []schema.RelPath{"./x"}, RHS: "./y"}}
	if c.String() != "{./x} -> ./y w.r.t. C(/a/b)" {
		t.Fatalf("FD constraint string: %q", c.String())
	}
	c.IsKey = true
	if c.String() != "{./x} KEY of C(/a/b)" {
		t.Fatalf("key constraint string: %q", c.String())
	}
}

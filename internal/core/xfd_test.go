package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"discoverxfd/internal/datatree"
	"discoverxfd/internal/relation"
)

// warehouseXML recreates the paper's running example (Figure 1),
// extended with two more books so that FD 4's LHS is minimal:
// {./title} alone and {./author} alone both fail, only the pair
// determines ./ISBN.
const warehouseXML = `
<warehouse>
  <state>
    <name>WA</name>
    <store>
      <contact><name>Borders</name><address>Seattle</address></contact>
      <book>
        <ISBN>111</ISBN><author>Post</author>
        <title>Foundations</title><price>30</price>
      </book>
      <book>
        <ISBN>222</ISBN><author>Ramakrishnan</author><author>Gehrke</author>
        <title>DBMS</title><price>40</price>
      </book>
    </store>
  </state>
  <state>
    <name>KY</name>
    <store>
      <contact><name>Borders</name><address>Lexington</address></contact>
      <book>
        <ISBN>222</ISBN><author>Gehrke</author><author>Ramakrishnan</author>
        <title>DBMS</title><price>40</price>
      </book>
      <book>
        <ISBN>333</ISBN><author>Date</author>
        <title>DBMS</title><price>50</price>
      </book>
    </store>
    <store>
      <contact><name>WHSmith</name><address>Lexington</address></contact>
      <book>
        <ISBN>222</ISBN><author>Ramakrishnan</author><author>Gehrke</author>
        <title>DBMS</title>
      </book>
      <book>
        <ISBN>444</ISBN><author>Date</author>
        <title>XML</title><price>60</price>
      </book>
    </store>
  </state>
</warehouse>`

func buildWarehouse(t *testing.T, opts relation.Options) *relation.Hierarchy {
	t.Helper()
	tree, err := datatree.ParseXMLString(warehouseXML)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	s, err := datatree.InferSchema(tree)
	if err != nil {
		t.Fatalf("infer: %v", err)
	}
	h, err := relation.Build(tree, s, opts)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return h
}

// discoverCold runs one discovery on a fresh engine, with no deadline
// and no warm layer.
func discoverCold(h *relation.Hierarchy, opts Options) (*Result, error) {
	return NewEngine(opts).Discover(context.Background(), h, time.Time{}, false)
}

func fdStrings(res *Result) []string {
	out := make([]string, 0, len(res.FDs))
	for _, f := range res.FDs {
		out = append(out, f.String())
	}
	return out
}

func keyStrings(res *Result) []string {
	out := make([]string, 0, len(res.Keys))
	for _, k := range res.Keys {
		out = append(out, k.String())
	}
	return out
}

func contains(list []string, want string) bool {
	for _, s := range list {
		if s == want {
			return true
		}
	}
	return false
}

func TestDiscoverWarehousePaperFDs(t *testing.T) {
	h := buildWarehouse(t, relation.Options{})
	res, err := discoverCold(h, Options{})
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	fds := fdStrings(res)
	book := "/warehouse/state/store/book"

	want := []string{
		// FD 1: {./ISBN} -> ./title
		"{./ISBN} -> ./title w.r.t. C(" + book + ")",
		// FD 3: {./ISBN} -> ./author (set element on the RHS)
		"{./ISBN} -> ./author w.r.t. C(" + book + ")",
		// FD 4: {./author, ./title} -> ./ISBN (set element on the LHS)
		"{./author, ./title} -> ./ISBN w.r.t. C(" + book + ")",
		// FD 2: {../contact/name, ./ISBN} -> ./price (inter-relation)
		"{../contact/name, ./ISBN} -> ./price w.r.t. C(" + book + ")",
	}
	for _, w := range want {
		if !contains(fds, w) {
			t.Errorf("missing expected FD %q\ndiscovered:\n  %s", w, strings.Join(fds, "\n  "))
		}
	}

	// FD 2 must not degrade to the intra-relation {./ISBN} -> ./price,
	// which the missing price of the WHSmith copy of ISBN 222 violates.
	bad := "{./ISBN} -> ./price w.r.t. C(" + book + ")"
	if contains(fds, bad) {
		t.Errorf("FD %q should be violated (strong satisfaction of missing price)", bad)
	}
}

func TestDiscoverWarehouseRedundancies(t *testing.T) {
	h := buildWarehouse(t, relation.Options{})
	res, err := discoverCold(h, Options{})
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	if len(res.Redundancies) != len(res.FDs) {
		t.Fatalf("Definition 11: every reported FD indicates a redundancy; got %d redundancies for %d FDs",
			len(res.Redundancies), len(res.FDs))
	}
	// ISBN 222 appears three times, so {./ISBN} -> ./title stores the
	// title "DBMS" redundantly twice for that group; ISBN 333's group
	// is a singleton and contributes nothing.
	for _, r := range res.Redundancies {
		if r.FD.String() == "{./ISBN} -> ./title w.r.t. C(/warehouse/state/store/book)" {
			if r.RedundantValues != 2 || r.Groups != 1 {
				t.Errorf("ISBN->title: got %d redundant values in %d groups, want 2 in 1", r.RedundantValues, r.Groups)
			}
			return
		}
	}
	t.Fatalf("ISBN->title redundancy not reported")
}

func TestDiscoverWarehouseKeys(t *testing.T) {
	h := buildWarehouse(t, relation.Options{})
	res, err := discoverCold(h, Options{})
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	keys := keyStrings(res)
	// Within one state, store contacts are unique; {./contact} is a
	// key of C_store (the paper's Figure 7(B) shows exactly this).
	if !contains(keys, "{./contact} KEY of C(/warehouse/state/store)") {
		t.Errorf("expected {./contact} to be a key of C_store; keys:\n  %s", strings.Join(keys, "\n  "))
	}
	// ISBN is not a key of C_book (222 occurs three times), so it must
	// not be reported.
	if contains(keys, "{./ISBN} KEY of C(/warehouse/state/store/book)") {
		t.Errorf("{./ISBN} must not be a key of C_book")
	}
}

func TestDiscoverResultsAllVerify(t *testing.T) {
	h := buildWarehouse(t, relation.Options{})
	res, err := discoverCold(h, Options{})
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	for _, fd := range res.FDs {
		ev, err := Evaluate(h, fd.Class, fd.LHS, fd.RHS)
		if err != nil {
			t.Fatalf("Evaluate(%s): %v", fd, err)
		}
		if !ev.Holds {
			t.Errorf("discovered FD does not hold on the data: %s (%d violations)", fd, ev.Violations)
		}
		if ev.LHSIsKey {
			t.Errorf("discovered FD has a key LHS (should have been pruned or reported as Key): %s", fd)
		}
	}
	for _, k := range res.Keys {
		// A key is the FD LHS -> ./@key; verify via LHSIsKey on any RHS.
		rel := h.ByPivot(k.Class)
		if rel == nil || rel.NAttrs() == 0 {
			t.Fatalf("bad key class %s", k.Class)
		}
		ev, err := Evaluate(h, k.Class, k.LHS, rel.Attrs[0].Rel)
		if err != nil {
			t.Fatalf("Evaluate key %s: %v", k, err)
		}
		if !ev.LHSIsKey {
			t.Errorf("reported key is not a key: %s", k)
		}
	}
}

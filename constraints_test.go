package discoverxfd_test

import (
	"context"
	"strings"
	"testing"

	"discoverxfd"
)

func TestCheckConstraints(t *testing.T) {
	eng := discoverxfd.NewEngine(nil)
	ctx := context.Background()
	doc, err := discoverxfd.ParseDocument(libraryXML)
	if err != nil {
		t.Fatal(err)
	}
	h, err := eng.BuildHierarchy(ctx, doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := discoverxfd.ParseConstraints(`
{./isbn} -> ./title w.r.t. C(/library/shelf/book)
{./isbn} -> ./publisher w.r.t. C(/library/shelf/book)
{../room} -> ./publisher w.r.t. C(/library/shelf/book)
{./room} KEY of C(/library/shelf)
{./isbn} KEY of C(/library/shelf/book)
`)
	if err != nil {
		t.Fatal(err)
	}
	results, err := eng.CheckConstraints(ctx, h, cs)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, true, false, true, false}
	for i, r := range results {
		if r.Holds != want[i] {
			t.Errorf("%s: holds=%v, want %v", r.Constraint, r.Holds, want[i])
		}
	}
	// The satisfied FD reports its witness; the violated one its g3.
	if results[0].Witnesses != 1 {
		t.Errorf("isbn->title witnesses = %d, want 1", results[0].Witnesses)
	}
	if results[2].G3Error <= 0 {
		t.Errorf("violated FD should carry a positive g3 error")
	}
	if !strings.Contains(results[2].String(), "VIOLATED") {
		t.Errorf("String: %q", results[2].String())
	}
}

func TestCheckConstraintsUnknownClass(t *testing.T) {
	eng := discoverxfd.NewEngine(nil)
	ctx := context.Background()
	doc, _ := discoverxfd.ParseDocument(libraryXML)
	h, err := eng.BuildHierarchy(ctx, doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := discoverxfd.ParseConstraints(`{./x} KEY of C(/library/nothere)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CheckConstraints(ctx, h, cs); err == nil {
		t.Fatal("unknown class must error")
	}
}

// TestDiscoveredConstraintsRecheck round-trips discovery output
// through the notation parser and the checker: everything Discover
// reports must re-verify from its printed form.
func TestDiscoveredConstraintsRecheck(t *testing.T) {
	eng := discoverxfd.NewEngine(nil)
	ctx := context.Background()
	doc, _ := discoverxfd.ParseDocument(libraryXML)
	h, err := eng.BuildHierarchy(ctx, doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.DiscoverHierarchy(ctx, h)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, fd := range res.FDs {
		lines = append(lines, fd.String())
	}
	for _, k := range res.Keys {
		lines = append(lines, k.String())
	}
	cs, err := discoverxfd.ParseConstraints(strings.Join(lines, "\n"))
	if err != nil {
		t.Fatalf("discovery output failed to re-parse: %v", err)
	}
	results, err := eng.CheckConstraints(ctx, h, cs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.Holds {
			t.Errorf("discovered constraint fails its own recheck: %s", r.Constraint)
		}
	}
}

// TestRootTextStreamedMatchesInMemory pins that a root element's own
// text survives streaming: the in-memory and streamed hierarchies of
// one document must give the same verdicts on constraints that read
// that text.
func TestRootTextStreamedMatchesInMemory(t *testing.T) {
	eng := discoverxfd.NewEngine(nil)
	ctx := context.Background()
	const xml = `<doc>hello<item><id>1</id><v>a</v></item><item><id>2</id><v>b</v></item></doc>`
	doc, err := discoverxfd.ParseDocument(xml)
	if err != nil {
		t.Fatal(err)
	}
	s, err := discoverxfd.InferSchema(doc)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := eng.BuildHierarchy(ctx, doc, s)
	if err != nil {
		t.Fatal(err)
	}
	str, err := eng.BuildHierarchyStream(ctx, strings.NewReader(xml), s)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := discoverxfd.ParseConstraints(`{../@text} -> ./v w.r.t. C(/doc/item)`)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []struct {
		name string
		h    *discoverxfd.Hierarchy
	}{{"in-memory", mem}, {"streamed", str}} {
		ev, err := eng.Evaluate(ctx, h.h, "/doc/item", []discoverxfd.RelPath{"../@text"}, "./v")
		if err != nil {
			t.Fatal(err)
		}
		// Both items share the root's text but differ in v.
		if ev.Holds || ev.LHSIsKey || ev.Error != 0.5 {
			t.Errorf("%s: Evaluate = %+v, want Holds=false LHSIsKey=false Error=0.5", h.name, ev)
		}
		results, err := eng.CheckConstraints(ctx, h.h, cs)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != 1 || results[0].Holds {
			t.Errorf("%s: CheckConstraints = %v, want one violated FD", h.name, results)
		}
	}
}

package discoverxfd_test

import (
	"context"
	"strings"
	"testing"

	"discoverxfd"
)

const libraryXML = `
<library>
  <shelf>
    <room>North</room>
    <book><isbn>1</isbn><title>Go</title><publisher>Addison</publisher></book>
    <book><isbn>2</isbn><title>XML</title><publisher>Wiley</publisher></book>
  </shelf>
  <shelf>
    <room>South</room>
    <book><isbn>1</isbn><title>Go</title><publisher>Addison</publisher></book>
  </shelf>
</library>`

func TestPublicAPIEndToEnd(t *testing.T) {
	doc, err := discoverxfd.ParseDocument(libraryXML)
	if err != nil {
		t.Fatal(err)
	}
	s, err := discoverxfd.InferSchema(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := discoverxfd.Conform(doc, s); err != nil {
		t.Fatalf("inferred schema must accept its document: %v", err)
	}
	res, err := discoverxfd.NewEngine(nil).Discover(context.Background(), doc, s)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, fd := range res.FDs {
		if fd.String() == "{./isbn} -> ./title w.r.t. C(/library/shelf/book)" {
			found = true
		}
	}
	if !found {
		t.Fatalf("isbn -> title not discovered; FDs: %v", res.FDs)
	}
	if len(res.Redundancies) != len(res.FDs) {
		t.Fatalf("redundancies (%d) must pair FDs (%d)", len(res.Redundancies), len(res.FDs))
	}
}

func TestDiscoverWithNilSchemaAndOptions(t *testing.T) {
	doc, err := discoverxfd.ParseDocument(libraryXML)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := discoverxfd.NewEngine(nil).Discover(context.Background(), doc, nil); err != nil {
		t.Fatalf("nil schema/options should infer and default: %v", err)
	}
}

func TestDiscoverRejectsNonConforming(t *testing.T) {
	doc, _ := discoverxfd.ParseDocument(libraryXML)
	s, err := discoverxfd.ParseSchema("other: Rcd\n  x: str")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := discoverxfd.NewEngine(nil).Discover(context.Background(), doc, s); err == nil {
		t.Fatal("expected a conformance error")
	}
}

func TestOptionsIntraOnly(t *testing.T) {
	doc, _ := discoverxfd.ParseDocument(libraryXML)
	res, err := discoverxfd.NewEngine(&discoverxfd.Options{IntraOnly: true}).Discover(context.Background(), doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, fd := range res.FDs {
		if fd.Inter {
			t.Fatalf("IntraOnly produced inter FD %s", fd)
		}
	}
}

func TestOptionsNoSetElements(t *testing.T) {
	doc, _ := discoverxfd.ParseDocument(libraryXML)
	res, err := discoverxfd.NewEngine(&discoverxfd.Options{NoSetElements: true}).Discover(context.Background(), doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, fd := range res.FDs {
		for _, p := range append([]discoverxfd.RelPath{fd.RHS}, fd.LHS...) {
			if strings.HasSuffix(string(p), "/book") || strings.HasSuffix(string(p), "/shelf") {
				t.Fatalf("NoSetElements produced set path in %s", fd)
			}
		}
	}
}

func TestEvaluatePublic(t *testing.T) {
	eng := discoverxfd.NewEngine(nil)
	ctx := context.Background()
	doc, _ := discoverxfd.ParseDocument(libraryXML)
	h, err := eng.BuildHierarchy(ctx, doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := eng.Evaluate(ctx, h, "/library/shelf/book", []discoverxfd.RelPath{"./isbn"}, "./title")
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Holds || ev.LHSIsKey || ev.Witnesses != 1 {
		t.Fatalf("Evaluate: %+v", ev)
	}
}

func TestWriteReport(t *testing.T) {
	doc, _ := discoverxfd.ParseDocument(libraryXML)
	res, err := discoverxfd.NewEngine(nil).Discover(context.Background(), doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := discoverxfd.ReportString(res)
	for _, want := range []string{
		"Redundancy-indicating XML FDs",
		"tuple class C(/library/shelf/book)",
		"XML Keys",
		"Run:",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestLoadDocumentFileError(t *testing.T) {
	if _, err := discoverxfd.NewEngine(nil).LoadDocumentFile(context.Background(), "/nonexistent/file.xml", "auto"); err == nil {
		t.Fatal("expected an error for a missing file")
	}
}

func TestDiscoverStreamFacade(t *testing.T) {
	eng := discoverxfd.NewEngine(nil)
	ctx := context.Background()
	doc, _ := discoverxfd.ParseDocument(libraryXML)
	s, err := discoverxfd.InferSchema(doc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.DiscoverStream(ctx, strings.NewReader(libraryXML), s)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, fd := range res.FDs {
		if fd.String() == "{./isbn} -> ./title w.r.t. C(/library/shelf/book)" {
			found = true
		}
	}
	if !found {
		t.Fatalf("streamed discovery missed isbn -> title: %v", res.FDs)
	}
	// Streaming requires an explicit schema.
	if _, err := eng.DiscoverStream(ctx, strings.NewReader(libraryXML), nil); err == nil {
		t.Fatal("nil schema must be rejected in streaming mode")
	}
}

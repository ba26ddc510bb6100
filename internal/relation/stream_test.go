package relation

import (
	"reflect"
	"strings"
	"testing"

	"discoverxfd/internal/datatree"
	"discoverxfd/internal/schema"
	"discoverxfd/internal/xmlgen"
)

// rootTextXML is a document whose root element carries its own text
// next to its children.
const rootTextXML = `<doc>hello<item><id>1</id><v>a</v></item><item><id>2</id><v>b</v></item></doc>`

// TestBuildStreamMatchesBuild checks exact parity between the two
// input shapes of the one builder: over every generator dataset and a
// root-text document, under every set-semantics option and a tuple
// budget, a materialized tree and a stream of the same XML must yield
// identical columns, dense bounds, parent links and truncation. Only
// the tuple keys differ: pre-order node keys for the tree (checked
// against the retained pivot nodes), sequence numbers for the stream.
func TestBuildStreamMatchesBuild(t *testing.T) {
	type doc struct {
		name string
		xml  string
		s    *schema.Schema
	}
	var docs []doc
	for _, ds := range []xmlgen.Dataset{
		xmlgen.Warehouse(xmlgen.DefaultWarehouse()),
		xmlgen.DBLP(xmlgen.DefaultDBLP()),
		xmlgen.PSD(xmlgen.DefaultPSD()),
		xmlgen.Auction(xmlgen.DefaultAuction()),
		xmlgen.Mondial(xmlgen.DefaultMondial()),
		xmlgen.Catalog(xmlgen.DefaultCatalog()),
		xmlgen.Wide(xmlgen.DefaultWide(6)),
		xmlgen.WideForest(xmlgen.WideForestParams{Tables: 3, Table: xmlgen.DefaultWide(4)}),
	} {
		docs = append(docs, doc{ds.Name, ds.Tree.XMLString(), ds.Schema})
	}
	rt, err := datatree.ParseXMLString(rootTextXML)
	if err != nil {
		t.Fatal(err)
	}
	rts, err := datatree.InferSchema(rt)
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, doc{"root-text", rootTextXML, rts})

	for _, d := range docs {
		for _, o := range []struct {
			name string
			opts Options
		}{
			{"default", Options{}},
			{"ordered", Options{OrderedSets: true}},
			{"no-set-attrs", Options{DisableSetAttrs: true}},
			{"max-tuples", Options{MaxTuples: 40}},
		} {
			t.Run(d.name+"/"+o.name, func(t *testing.T) {
				tr, err := datatree.ParseXMLString(d.xml)
				if err != nil {
					t.Fatal(err)
				}
				mem, err := Build(tr, d.s, o.opts)
				if err != nil {
					t.Fatal(err)
				}
				str, err := BuildStream(strings.NewReader(d.xml), d.s, o.opts)
				if err != nil {
					t.Fatal(err)
				}
				requireSameBuild(t, mem, str)
			})
		}
	}
}

// requireSameBuild asserts that the in-memory build mem and the
// streamed build str of one document are identical up to tuple keys.
func requireSameBuild(t *testing.T, mem, str *Hierarchy) {
	t.Helper()
	if mem.Truncated != str.Truncated || mem.TruncatedReason != str.TruncatedReason {
		t.Fatalf("truncation differs: tree (%v, %q), stream (%v, %q)",
			mem.Truncated, mem.TruncatedReason, str.Truncated, str.TruncatedReason)
	}
	if len(str.Relations) != len(mem.Relations) {
		t.Fatalf("relation counts differ: %d vs %d", len(str.Relations), len(mem.Relations))
	}
	for i, mrel := range mem.Relations {
		srel := str.Relations[i]
		if srel.Pivot != mrel.Pivot || !reflect.DeepEqual(srel.Attrs, mrel.Attrs) {
			t.Fatalf("relation %d: layout differs: %s %v vs %s %v", i, srel.Pivot, srel.Attrs, mrel.Pivot, mrel.Attrs)
		}
		if !reflect.DeepEqual(srel.ParentIdx, mrel.ParentIdx) {
			t.Fatalf("%s: parent links differ:\nstream %v\ntree   %v", mrel.Pivot, srel.ParentIdx, mrel.ParentIdx)
		}
		if !reflect.DeepEqual(srel.ColBound, mrel.ColBound) {
			t.Fatalf("%s: dense bounds differ:\nstream %v\ntree   %v", mrel.Pivot, srel.ColBound, mrel.ColBound)
		}
		for ai := range mrel.Attrs {
			if !reflect.DeepEqual(srel.Cols[ai], mrel.Cols[ai]) {
				t.Fatalf("%s.%s: columns differ:\nstream %v\ntree   %v",
					mrel.Pivot, mrel.Attrs[ai].Name(), srel.Cols[ai], mrel.Cols[ai])
			}
		}
		for ti, k := range mrel.Keys {
			if n := mrel.Node(ti); n == nil || n.Key != k {
				t.Fatalf("%s tuple %d: key %d does not match its pivot node %v", mrel.Pivot, ti, k, n)
			}
			if str.Relations[i].Node(ti) != nil {
				t.Fatalf("%s tuple %d: streamed build retained its pivot node", mrel.Pivot, ti)
			}
		}
	}
}

// TestBuildStreamNonSetRootChildren covers root leaf attributes,
// complex containers, and set elements nested below non-set
// containers.
func TestBuildStreamNonSetRootChildren(t *testing.T) {
	s := mustSchema(t, `
doc: Rcd
  version: str
  meta: Rcd
    owner: str
    tag: SetOf str
  item: SetOf Rcd
    id: str
`)
	xml := `
<doc>
  <version>3</version>
  <meta><owner>me</owner><tag>a</tag><tag>b</tag></meta>
  <item><id>1</id></item>
  <item><id>2</id></item>
</doc>`
	h, err := BuildStream(strings.NewReader(xml), s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	root := h.Root
	if root.NRows() != 1 {
		t.Fatalf("root rows = %d", root.NRows())
	}
	for _, rel := range []struct {
		attr string
		null bool
	}{{"./version", false}, {"./meta", false}, {"./meta/owner", false}, {"./meta/tag", false}, {"./item", false}} {
		ai := root.AttrIndex(schemaRel(rel.attr))
		if ai < 0 {
			t.Fatalf("missing root attr %s: %v", rel.attr, root.Attrs)
		}
		if IsNull(root.Cols[ai][0]) != rel.null {
			t.Fatalf("root attr %s null=%v", rel.attr, IsNull(root.Cols[ai][0]))
		}
	}
	tags := h.ByPivot("/doc/meta/tag")
	if tags == nil || tags.NRows() != 2 {
		t.Fatalf("R_tag missing or wrong: %+v", tags)
	}
	items := h.ByPivot("/doc/item")
	if items.NRows() != 2 {
		t.Fatalf("R_item rows = %d", items.NRows())
	}
}

// TestBuildStreamErrors covers root mismatch and undeclared children.
func TestBuildStreamErrors(t *testing.T) {
	s := mustSchema(t, "doc: Rcd\n  item: SetOf Rcd\n    id: str")
	if _, err := BuildStream(strings.NewReader("<other/>"), s, Options{}); err == nil {
		t.Fatal("root mismatch should fail")
	}
	if _, err := BuildStream(strings.NewReader("<doc><bogus/></doc>"), s, Options{}); err == nil {
		t.Fatal("undeclared child should fail")
	}
}

// TestMaxTuplesKeepsDocumentOrderPrefix checks that a tuple budget
// keeps the document's first tuples under both input shapes, also for
// a set element nested below a non-set container of the root.
func TestMaxTuplesKeepsDocumentOrderPrefix(t *testing.T) {
	s := mustSchema(t, `
doc: Rcd
  meta: Rcd
    tag: SetOf str
  item: SetOf Rcd
    id: str
`)
	const xml = `<doc><meta><tag>a</tag><tag>b</tag></meta><item><id>1</id></item><item><id>2</id></item></doc>`
	tr, err := datatree.ParseXMLString(xml)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := Build(tr, s, Options{MaxTuples: 3})
	if err != nil {
		t.Fatal(err)
	}
	str, err := BuildStream(strings.NewReader(xml), s, Options{MaxTuples: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []*Hierarchy{mem, str} {
		if !h.Truncated || h.ByPivot("/doc/meta/tag").NRows() != 2 || h.ByPivot("/doc/item").NRows() != 1 {
			t.Fatalf("want the first 3 tuples (2 tags, 1 item), got truncated=%v tags=%d items=%d",
				h.Truncated, h.ByPivot("/doc/meta/tag").NRows(), h.ByPivot("/doc/item").NRows())
		}
	}
}

func mustSchema(t *testing.T, text string) *schema.Schema {
	t.Helper()
	s, err := schema.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func schemaRel(s string) schema.RelPath { return schema.RelPath(s) }

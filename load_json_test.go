package discoverxfd_test

import (
	"bytes"
	"context"
	"testing"

	"discoverxfd"
	"discoverxfd/internal/source/jsondoc"
	"discoverxfd/internal/xmlgen"
)

// jsonTwin spells a dataset as JSON with jsondoc.Write.
func jsonTwin(tb testing.TB, ds xmlgen.Dataset) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := jsondoc.Write(&buf, ds.Tree, ds.Schema); err != nil {
		tb.Fatalf("jsondoc.Write %s: %v", ds.Name, err)
	}
	return buf.Bytes()
}

// TestLoadJSONAllocs bounds what Engine.LoadJSON allocates per tree
// node on the JSON twins of the psd, warehouse and auction corpora.
// Nodes, child lists and values come from the parse's arena, one
// allocation per slab, so the parse's fixed costs (its window, name
// and path tables, and the hinted path strings) dominate: 0.05, 0.10
// and 0.07 per node, against 2.0 when each node and its value or its
// children were allocations of their own.
func TestLoadJSONAllocs(t *testing.T) {
	const bound = 0.12
	ctx := context.Background()
	eng := discoverxfd.NewEngine(nil)
	for _, ds := range []xmlgen.Dataset{
		xmlgen.PSD(xmlgen.DefaultPSD()),
		xmlgen.Warehouse(xmlgen.DefaultWarehouse()),
		xmlgen.Auction(xmlgen.DefaultAuction()),
	} {
		data := jsonTwin(t, ds)
		doc, err := eng.LoadJSON(ctx, bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", ds.Name, err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := eng.LoadJSON(ctx, bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		})
		perNode := allocs / float64(doc.Size())
		if perNode > bound {
			t.Errorf("%s: LoadJSON allocates %.3f times per node (%.0f for %d nodes), want <= %.2f",
				ds.Name, perNode, allocs, doc.Size(), bound)
		}
		t.Logf("%s: %.3f allocations per node (%d nodes, %d bytes)", ds.Name, perNode, doc.Size(), len(data))
	}
}

// BenchmarkLoadTwins parses the psd corpus spelled as JSON and as XML,
// the two front-ends on the same tree.
func BenchmarkLoadTwins(b *testing.B) {
	ds := xmlgen.PSD(xmlgen.DefaultPSD())
	var xml bytes.Buffer
	if err := ds.Tree.WriteXML(&xml); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	eng := discoverxfd.NewEngine(nil)
	for _, c := range []struct {
		name string
		data []byte
		load func(*bytes.Reader) error
	}{
		{"json", jsonTwin(b, ds), func(r *bytes.Reader) error { _, err := eng.LoadJSON(ctx, r); return err }},
		{"xml", xml.Bytes(), func(r *bytes.Reader) error { _, err := eng.LoadDocument(ctx, r); return err }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(c.data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.load(bytes.NewReader(c.data)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package datatree_test

import (
	"bytes"
	"runtime"
	"testing"
	"unsafe"

	"discoverxfd/internal/datatree"
	"discoverxfd/internal/source/jsondoc"
	"discoverxfd/internal/xmlgen"
)

// parseBytes returns the bytes one call of parse allocates, averaged
// over a few calls, and the tree it returns.
func parseBytes(t *testing.T, parse func() (*datatree.Tree, error)) (float64, *datatree.Tree) {
	t.Helper()
	tr, err := parse()
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := parse(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs, tr
}

// treeBytes returns the bytes a tree holds: its nodes, its child
// pointers and its values.
func treeBytes(t *datatree.Tree) float64 {
	n := 0
	t.Root.Walk(func(m *datatree.Node) bool {
		n += int(unsafe.Sizeof(*m)) + len(m.Children)*int(unsafe.Sizeof(m)) + len(m.Value)
		return true
	})
	return float64(n)
}

// TestParseBytesPerNode bounds the bytes both parsers allocate per
// node by what the tree holds, so the bound follows the platform and
// the Go release rather than one measurement. A parse may allocate
// its fixed costs, measured as the parse of an empty document (the
// window, the parser's state), the tree's bytes plus 5% (name tables,
// parse stacks, the root's growing child list, slab ends an item did
// not fit in), and one 4 KiB slab of each kind for the unused tails
// of its last slabs. Node slabs that miss their size class (52 nodes
// cost 19% more per node) or slabs large enough to leave long tails
// fail it. For reference, when each node, child list and value was
// its own allocation the four cases read 105.63, 97.48, 176.28 and
// 120.50 bytes per node (Go 1.24, amd64); the arena reads within 5%
// of those.
func TestParseBytesPerNode(t *testing.T) {
	wh := xmlgen.Warehouse(xmlgen.DefaultWarehouse())
	var whXML, whJSON bytes.Buffer
	if err := wh.Tree.WriteXML(&whXML); err != nil {
		t.Fatal(err)
	}
	if err := jsondoc.Write(&whJSON, wh.Tree, wh.Schema); err != nil {
		t.Fatal(err)
	}
	books := []byte(datatree.BenchDoc(1000))
	bt, err := datatree.ParseXML(bytes.NewReader(books))
	if err != nil {
		t.Fatal(err)
	}
	bs, err := datatree.InferSchema(bt)
	if err != nil {
		t.Fatal(err)
	}
	var booksJSON bytes.Buffer
	if err := jsondoc.Write(&booksJSON, bt, bs); err != nil {
		t.Fatal(err)
	}
	xml := func(data []byte) func() (*datatree.Tree, error) {
		return func() (*datatree.Tree, error) { return datatree.ParseXML(bytes.NewReader(data)) }
	}
	json := func(data []byte) func() (*datatree.Tree, error) {
		return func() (*datatree.Tree, error) { return jsondoc.Parse(bytes.NewReader(data)) }
	}
	for _, c := range []struct {
		name         string
		parse, empty func() (*datatree.Tree, error)
	}{
		{"books/xml", xml(books), xml([]byte("<store/>"))},
		{"books/json", json(booksJSON.Bytes()), json([]byte(`{"store": {}}`))},
		{"warehouse/xml", xml(whXML.Bytes()), xml([]byte("<warehouse/>"))},
		{"warehouse/json", json(whJSON.Bytes()), json([]byte(`{"warehouse": {}}`))},
	} {
		fixed, _ := parseBytes(t, c.empty)
		got, tr := parseBytes(t, c.parse)
		nodes := float64(tr.Size())
		bound := fixed + 1.05*treeBytes(tr) + 3*4096
		if got > bound {
			t.Errorf("%s: %.2f bytes per node (%d nodes), want <= %.2f", c.name, got/nodes, tr.Size(), bound/nodes)
		}
		t.Logf("%s: %.2f bytes per node (%d nodes), bound %.2f", c.name, got/nodes, tr.Size(), bound/nodes)
	}
}

package datatree

import (
	"fmt"
	"strings"
	"testing"
)

func benchDoc(books int) string {
	var b strings.Builder
	b.WriteString("<store>")
	for i := 0; i < books; i++ {
		fmt.Fprintf(&b, "<book><isbn>%d</isbn><author>A%d</author><author>B%d</author><title>T%d</title></book>",
			i, i%20, i%17, i%50)
	}
	b.WriteString("</store>")
	return b.String()
}

func BenchmarkParseXML(b *testing.B) {
	doc := benchDoc(1000)
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseXMLString(doc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStreamRootChildren(b *testing.B) {
	doc := benchDoc(1000)
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := StreamRootChildren(strings.NewReader(doc), func(*Node) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchDoc is benchDoc for the package's external tests.
var BenchDoc = benchDoc

// TestParseAllocsPerNode bounds the allocations of both entry points
// per data node. Nodes, child lists and values come from the parse's
// Arena, one allocation per slab of 51 nodes, 511 child pointers or
// 4 KiB of value bytes, with labels interned and text buffers reused:
// 0.03 per node on this document, against 2.0 when each node, child
// list and value was its own allocation.
func TestParseAllocsPerNode(t *testing.T) {
	doc := benchDoc(1000)
	tr, err := ParseXMLString(doc)
	if err != nil {
		t.Fatal(err)
	}
	nodes := float64(tr.Size())
	parse := testing.AllocsPerRun(5, func() {
		if _, err := ParseXMLString(doc); err != nil {
			t.Fatal(err)
		}
	})
	stream := testing.AllocsPerRun(5, func() {
		if _, err := StreamRootChildren(strings.NewReader(doc), func(*Node) error { return nil }); err != nil {
			t.Fatal(err)
		}
	})
	const bound = 0.05
	if parse/nodes > bound || stream/nodes > bound {
		t.Fatalf("allocations per data node: ParseXML %.3f, StreamRootChildren %.3f, want <= %.2f",
			parse/nodes, stream/nodes, bound)
	}
	t.Logf("allocations per data node: ParseXML %.3f, StreamRootChildren %.3f", parse/nodes, stream/nodes)
}

// TestIngestAllocs bounds the allocations of the two per-node ingest
// passes. InferSchema allocates per distinct path only, so it
// allocates the same count at any document size; a cold Encode
// allocates about once per distinct subtree, for its intern key.
func TestIngestAllocs(t *testing.T) {
	inferAllocs := func(books int) float64 {
		tr, err := ParseXMLString(benchDoc(books))
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := InferSchema(tr); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := inferAllocs(1000), inferAllocs(4000)
	if small != large {
		t.Fatalf("InferSchema allocations grow with the document: %.0f at 1000 books, %.0f at 4000", small, large)
	}

	tr, err := ParseXMLString(benchDoc(1000))
	if err != nil {
		t.Fatal(err)
	}
	var distinct Encoder
	distinct.Encode(tr.Root)
	subtrees := float64(len(distinct.intern))
	encode := testing.AllocsPerRun(5, func() {
		var e Encoder
		e.Encode(tr.Root)
	})
	const bound = 1.5
	if encode/subtrees > bound {
		t.Fatalf("cold Encode allocations per distinct subtree: %.2f, want <= %.1f", encode/subtrees, bound)
	}
	t.Logf("InferSchema allocations: %.0f at either size; cold Encode allocations per distinct subtree: %.2f",
		small, encode/subtrees)
}

func BenchmarkEncodeTree(b *testing.B) {
	tr, err := ParseXMLString(benchDoc(1000))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var e Encoder
		e.Encode(tr.Root)
	}
}

func BenchmarkInferSchema(b *testing.B) {
	tr, err := ParseXMLString(benchDoc(1000))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := InferSchema(tr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteXML(b *testing.B) {
	tr, err := ParseXMLString(benchDoc(1000))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.XMLString()
	}
}

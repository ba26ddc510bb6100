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

// TestParseAllocsPerNode bounds the allocations of both entry points
// per data node: one per node, its children slice and its value,
// with labels interned and text buffers reused.
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
	const bound = 3
	if parse/nodes > bound || stream/nodes > bound {
		t.Fatalf("allocations per data node: ParseXML %.2f, StreamRootChildren %.2f, want <= %d",
			parse/nodes, stream/nodes, bound)
	}
	t.Logf("allocations per data node: ParseXML %.2f, StreamRootChildren %.2f", parse/nodes, stream/nodes)
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

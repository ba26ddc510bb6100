package datatree

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
)

// editTree grafts a child under every inner node and adds one under
// every leaf, in pre-order, then prunes every third child of every
// node that had children before the edits.
func editTree(t *Tree) {
	var nodes []*Node
	t.Root.Walk(func(n *Node) bool { nodes = append(nodes, n); return true })
	var inner []*Node
	for i, n := range nodes {
		if n.IsLeaf() {
			n.AddLeaf("added", fmt.Sprint(i))
		} else {
			inner = append(inner, n)
			t.Graft(n, "grafted")
		}
	}
	for _, n := range inner {
		var prune []*Node
		for i, c := range n.Children {
			if i%3 == 2 {
				prune = append(prune, c)
			}
		}
		for _, c := range prune {
			t.Prune(c)
		}
	}
}

// TestEditsToParsedTreeStayLocal requires edits to a parsed tree to
// give the same tree as the same edits to the encoding/xml oracle's
// tree, which is built node by node: appending to a child list carved
// from the parse's arena must not write into its neighbour's.
func TestEditsToParsedTreeStayLocal(t *testing.T) {
	mixed := "<doc>" + strings.Repeat(`<p id="7">lead <b>bold</b> tail<q x="1" y="2">v</q></p><e/>`, 60) + "root text</doc>"
	for name, doc := range map[string]string{"books": benchDoc(200), "mixed": mixed} {
		t.Run(name, func(t *testing.T) {
			parsed, err := ParseXMLString(doc)
			if err != nil {
				t.Fatal(err)
			}
			built, err := parseXMLOracle(context.Background(), strings.NewReader(doc), DefaultLimits())
			if err != nil {
				t.Fatal(err)
			}
			editTree(parsed)
			editTree(built)
			if got, want := parsed.String(), built.String(); got != want {
				t.Fatalf("edits to the parsed tree reached other nodes:\nparsed:\n%s\nbuilt node by node:\n%s", got, want)
			}
		})
	}
}

// straddleDoc generates "<r>", n root children and "</r>" as it is
// read. Each child is an <e> holding one or two <v> leaves, sized so
// that no child after the first starts a node slab: if slabs were
// shared across the whole stream, every slab would hold the tail of a
// child whose <e> sits in the slab before it, and the Parent links
// would chain every slab back to the first.
type straddleDoc struct {
	n       int    // root children to generate
	i       int    // root children generated
	nodes   int    // nodes those children take
	pending []byte // generated, not yet read
}

func newStraddleDoc(n int) *straddleDoc {
	return &straddleDoc{n: n, pending: []byte("<r>")}
}

func (d *straddleDoc) Read(p []byte) (int, error) {
	if len(d.pending) == 0 {
		switch {
		case d.i < d.n:
			leaves := 1
			if (d.nodes+2)%nodeSlab == 0 {
				leaves = 2 // else the next child would start a slab
			}
			d.pending = append(d.pending[:0], "<e>"...)
			for j := 0; j < leaves; j++ {
				d.pending = fmt.Appendf(d.pending, "<v>%d</v>", d.i)
			}
			d.pending = append(d.pending, "</e>"...)
			d.nodes += 1 + leaves
			d.i++
		case d.i == d.n:
			d.pending = []byte("</r>")
			d.i++
		default:
			return 0, io.EOF
		}
	}
	k := copy(p, d.pending)
	d.pending = d.pending[k:]
	return k, nil
}

// liveHeap returns the live heap after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestStreamDoesNotPinDeliveredSubtrees streams 40,000 root children
// whose subtrees straddle every node slab boundary, keeping the first
// one without cloning it, and requires the live heap to stay flat
// between an early and a late child: the stream holds one slab group
// and the subtree in progress, and the kept child pins only its own
// group. (internal/relation's TestBuildStreamDoesNotPinStreamedSubtrees
// holds the hierarchy builder, which keeps Clones, to the same.)
func TestStreamDoesNotPinDeliveredSubtrees(t *testing.T) {
	const children, early, late = 40000, 2000, 39000
	const bound = 256 << 10
	var kept *Node
	var earlyHeap, lateHeap uint64
	seen := 0
	_, err := StreamRootChildren(newStraddleDoc(children), func(c *Node) error {
		switch seen {
		case 0:
			kept = c
		case early:
			earlyHeap = liveHeap()
		case late:
			lateHeap = liveHeap()
		}
		seen++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != children || kept.Children[0].Value != "0" {
		t.Fatalf("delivered %d children, want %d with the first kept intact", seen, children)
	}
	if grew := int64(lateHeap) - int64(earlyHeap); grew >= bound {
		t.Fatalf("live heap grew by %d bytes between child %d and child %d, want < %d", grew, early, late, bound)
	}
	t.Logf("live heap at child %d: %d bytes; at child %d: %d bytes", early, earlyHeap, late, lateHeap)
}

// TestSlabsFillTheirSizeClass requires each kind of slab to be one
// allocation of 4 KiB, the size class it is cut to fill: a slab that
// missed its class, say by forgetting the malloc header, would cost
// the next class up, 4,864 bytes.
func TestSlabsFillTheirSizeClass(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	kids := []*Node{{}}
	for _, c := range []struct {
		kind  string
		first func(a *Arena)
	}{
		{"node", func(a *Arena) { a.Node("x") }},
		{"child-list", func(a *Arena) { a.Children(kids) }},
		{"value", func(a *Arena) { a.Value([]byte("v")) }},
	} {
		const runs = 100
		arenas := make([]Arena, runs)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range arenas {
			c.first(&arenas[i])
		}
		runtime.ReadMemStats(&after)
		allocs := float64(after.Mallocs-before.Mallocs) / runs
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
		if allocs > 1.05 || bytes > 4096+64 {
			t.Errorf("a %s slab costs %.2f allocations and %.0f bytes, want 1 of 4096", c.kind, allocs, bytes)
		}
	}
}

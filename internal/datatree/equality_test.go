package datatree

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNodeValueEqualIgnoresSiblingOrder(t *testing.T) {
	a := parse(t, `<b><isbn>1</isbn><author>X</author><author>Y</author></b>`)
	b := parse(t, `<b><author>Y</author><isbn>1</isbn><author>X</author></b>`)
	if !NodeValueEqual(a.Root, b.Root) {
		t.Fatal("sibling order must not affect node-value equality (Definition 3)")
	}
}

func TestNodeValueEqualMultisetSemantics(t *testing.T) {
	// {X, X, Y} vs {X, Y}: Definition 3 requires a one-to-one
	// matching over ALL children, so these differ.
	a := parse(t, `<b><author>X</author><author>X</author><author>Y</author></b>`)
	b := parse(t, `<b><author>X</author><author>Y</author></b>`)
	if NodeValueEqual(a.Root, b.Root) {
		t.Fatal("duplicate children must count (one-to-one correspondence)")
	}
	c := parse(t, `<b><author>X</author><author>Y</author><author>X</author></b>`)
	if !NodeValueEqual(a.Root, c.Root) {
		t.Fatal("equal multisets in different order must match")
	}
}

func TestNodeValueEqualValueAndLabel(t *testing.T) {
	a := parse(t, `<x>1</x>`)
	b := parse(t, `<x>2</x>`)
	c := parse(t, `<y>1</y>`)
	d := parse(t, `<x>1</x>`)
	if NodeValueEqual(a.Root, b.Root) || NodeValueEqual(a.Root, c.Root) {
		t.Fatal("different value or label must not be equal")
	}
	if !NodeValueEqual(a.Root, d.Root) {
		t.Fatal("identical leaves must be equal")
	}
	// Value "" with HasValue differs from no value.
	e := NewTree(&Node{Label: "x", HasValue: true})
	f := NewTree(&Node{Label: "x"})
	if NodeValueEqual(e.Root, f.Root) {
		t.Fatal("empty value and absent value must differ")
	}
}

func TestEncoderSharedAcrossTrees(t *testing.T) {
	var e Encoder
	a := parse(t, `<b><x>1</x></b>`)
	b := parse(t, `<b><x>1</x></b>`)
	if e.Encode(a.Root) != e.Encode(b.Root) {
		t.Fatal("identical subtrees in different trees must share codes")
	}
}

// TestEncoderInvalidate checks, with one encoder throughout, the
// contract relation.Apply relies on to detect unchanged columns: after
// a leaf value changes and the leaf is invalidated, the root
// re-encodes to the code of the changed document while an untouched
// sibling subtree keeps its code, and restoring the value gives back
// the original root code.
func TestEncoderInvalidate(t *testing.T) {
	tr := parse(t, `<r><a><x>1</x><y>2</y></a><b><x>3</x></b></r>`)
	changed := parse(t, `<r><a><x>9</x><y>2</y></a><b><x>3</x></b></r>`)
	var e Encoder
	root := e.Encode(tr.Root)
	sibling := tr.Root.Children[1]
	siblingCode := e.Encode(sibling)
	leaf := tr.Root.Children[0].Children[0]

	leaf.Value = "9"
	e.Invalidate(leaf)
	if got := e.Encode(tr.Root); got == root || got != e.Encode(changed.Root) {
		t.Fatalf("root code after the change is %d: was %d, the changed document encodes to %d",
			got, root, e.Encode(changed.Root))
	}
	if got := e.Encode(sibling); got != siblingCode {
		t.Fatalf("untouched sibling subtree re-encodes to %d, was %d", got, siblingCode)
	}

	leaf.Value = "1"
	e.Invalidate(leaf)
	if got := e.Encode(tr.Root); got != root {
		t.Fatalf("restored document encodes to %d, want the original root code %d", got, root)
	}
}

func TestMultisetVsListCode(t *testing.T) {
	var e Encoder
	a := parse(t, `<r><a>1</a><a>2</a></r>`)
	b := parse(t, `<r><a>2</a><a>1</a></r>`)
	am, bm := e.MultisetCode(a.Root.Children), e.MultisetCode(b.Root.Children)
	if am != bm {
		t.Fatal("multiset codes must ignore order")
	}
	al, bl := e.ListCode(a.Root.Children), e.ListCode(b.Root.Children)
	if al == bl {
		t.Fatal("list codes must respect order")
	}
	// Same order lists agree.
	c := parse(t, `<r><a>1</a><a>2</a></r>`)
	if e.ListCode(c.Root.Children) != al {
		t.Fatal("identical lists must share a code")
	}
	// Multiset and list namespaces must not collide.
	if e.MultisetCode(a.Root.Children) == e.ListCode(a.Root.Children) {
		t.Fatal("multiset and list codes of the same nodes should be distinct interned entries")
	}
}

func TestPathValueEquality(t *testing.T) {
	t1 := parse(t, `<s><b><a>X</a><a>Y</a></b></s>`)
	t2 := parse(t, `<s><b><a>Y</a><a>X</a></b></s>`)
	if !PathValueEqual(t1, "/s/b/a", t2, "/s/b/a") {
		t.Fatal("reordered author sets must be path-value equal (Definition 4)")
	}
	t3 := parse(t, `<s><b><a>X</a></b></s>`)
	if PathValueEqual(t1, "/s/b/a", t3, "/s/b/a") {
		t.Fatal("different cardinalities must not be path-value equal")
	}
}

// randomTree builds a small random tree from a seed.
func randomTree(r *rand.Rand, depth int) *Node {
	n := &Node{Label: string(rune('a' + r.Intn(3)))}
	if depth <= 0 || r.Intn(3) == 0 {
		n.Value = fmt.Sprintf("%d", r.Intn(4))
		n.HasValue = true
		return n
	}
	k := r.Intn(4)
	for i := 0; i < k; i++ {
		c := randomTree(r, depth-1)
		c.Parent = n
		n.Children = append(n.Children, c)
	}
	return n
}

// shuffleTree returns a deep copy with every child list shuffled.
func shuffleTree(r *rand.Rand, n *Node) *Node {
	cp := &Node{Label: n.Label, Value: n.Value, HasValue: n.HasValue}
	perm := r.Perm(len(n.Children))
	for _, i := range perm {
		c := shuffleTree(r, n.Children[i])
		c.Parent = cp
		cp.Children = append(cp.Children, c)
	}
	return cp
}

// TestEncodeShuffleInvariant property-checks that shuffling sibling
// order anywhere in a random tree never changes its canonical code,
// and that changing one leaf value always does.
func TestEncodeShuffleInvariant(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		root := randomTree(r, 3)
		shuf := shuffleTree(r, root)
		var e Encoder
		if e.Encode(root) != e.Encode(shuf) {
			return false
		}
		// Mutate one leaf (if any) and require a different code.
		var leaf *Node
		NewTree(shuf).Root.Walk(func(n *Node) bool {
			if n.HasValue && leaf == nil {
				leaf = n
			}
			return true
		})
		if leaf != nil {
			leaf.Value += "-mut"
			var e2 Encoder
			if e2.Encode(root) == e2.Encode(shuf) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

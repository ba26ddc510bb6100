package datatree

import (
	"sort"
	"strconv"
	"strings"
)

// Encoder assigns canonical integer codes to subtrees such that two
// nodes receive the same code if and only if they are node-value
// equal (Definition 3): same label, same value assignment, and a
// one-to-one correspondence between node-value-equal children. The
// correspondence requirement makes child comparison a multiset
// equality, which the encoder realizes by sorting child codes.
//
// Codes are interned, so equality checks after encoding are O(1) and
// encoding a whole tree is O(n log n) in the number of nodes. An
// Encoder may be shared across trees: codes are then comparable
// across those trees, which is what path-value equality
// (Definition 4) between documents needs.
//
// The zero value is ready to use. Encoders are not safe for
// concurrent use.
type Encoder struct {
	intern map[string]int
	cache  map[*Node]int
}

// Encode returns the canonical code of the subtree rooted at n.
func (e *Encoder) Encode(n *Node) int {
	if e.intern == nil {
		e.intern = make(map[string]int)
		e.cache = make(map[*Node]int)
	}
	if c, ok := e.cache[n]; ok {
		return c
	}
	childCodes := make([]int, len(n.Children))
	for i, c := range n.Children {
		childCodes[i] = e.Encode(c)
	}
	sort.Ints(childCodes)
	var b strings.Builder
	b.WriteString(n.Label)
	b.WriteByte(0)
	if n.HasValue {
		b.WriteByte('v')
		b.WriteString(n.Value)
	}
	b.WriteByte(0)
	for _, c := range childCodes {
		b.WriteString(strconv.Itoa(c))
		b.WriteByte(',')
	}
	key := b.String()
	code, ok := e.intern[key]
	if !ok {
		code = len(e.intern) + 1
		e.intern[key] = code
	}
	e.cache[n] = code
	return code
}

// NodeValueEqual reports whether two nodes are node-value equal per
// Definition 3: both subtrees are identical ignoring sibling order.
func (e *Encoder) NodeValueEqual(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	return e.Encode(a) == e.Encode(b)
}

// NodeValueEqual is a convenience wrapper using a fresh Encoder.
func NodeValueEqual(a, b *Node) bool {
	var e Encoder
	return e.NodeValueEqual(a, b)
}

// MultisetCode returns a canonical code for an unordered collection
// of subtrees: two collections receive the same code iff there is a
// one-to-one node-value-equal correspondence between them. This is
// the primitive behind set partitions (the paper's Section 4.4) and
// path-value equality.
func (e *Encoder) MultisetCode(nodes []*Node) int {
	codes := make([]int, len(nodes))
	for i, n := range nodes {
		codes[i] = e.Encode(n)
	}
	return e.MultisetOfCodes(codes)
}

// MultisetOfCodes interns an unordered collection of already-encoded
// subtree codes. The argument slice is sorted in place. The
// hierarchy builder uses this form for member codes it has already
// computed, including those of streamed subtrees that are long gone.
func (e *Encoder) MultisetOfCodes(codes []int) int {
	if e.intern == nil {
		e.intern = make(map[string]int)
		e.cache = make(map[*Node]int)
	}
	sort.Ints(codes)
	return e.internCodes("ms", codes)
}

// Invalidate drops the cached codes of n and every ancestor of n.
// Call it after mutating a node (value change, child grafted or
// pruned): the subtree codes of the node and its ancestors are stale,
// while interned codes and the rest of the cache stay valid — an
// unchanged subtree re-encodes to its old code, which is what lets
// incremental updates detect that a column did not actually change.
func (e *Encoder) Invalidate(n *Node) {
	if e.cache == nil {
		return
	}
	for m := n; m != nil; m = m.Parent {
		delete(e.cache, m)
	}
}

// Forget drops the per-node memoization for the subtree rooted at n.
// Interned canonical codes stay valid; streaming builders call this
// after processing a subtree so the cache does not retain discarded
// nodes.
func (e *Encoder) Forget(n *Node) {
	if e.cache == nil {
		return
	}
	n.Walk(func(m *Node) bool {
		delete(e.cache, m)
		return true
	})
}

// ListCode returns a canonical code for an ordered list of subtrees:
// two lists receive the same code iff they have equal length and
// pairwise node-value-equal members in order. This is the ordered
// variant discussed in the paper's Section 4.5 remark on element
// order (ablation experiment E7).
func (e *Encoder) ListCode(nodes []*Node) int {
	codes := make([]int, len(nodes))
	for i, n := range nodes {
		codes[i] = e.Encode(n)
	}
	return e.ListOfCodes(codes)
}

// ListOfCodes interns an ordered list of already-encoded subtree
// codes: the ordered counterpart of MultisetOfCodes.
func (e *Encoder) ListOfCodes(codes []int) int {
	if e.intern == nil {
		e.intern = make(map[string]int)
		e.cache = make(map[*Node]int)
	}
	return e.internCodes("ls", codes)
}

func (e *Encoder) internCodes(tag string, codes []int) int {
	var b strings.Builder
	b.WriteString(tag)
	b.WriteByte(0)
	for _, c := range codes {
		b.WriteString(strconv.Itoa(c))
		b.WriteByte(',')
	}
	key := b.String()
	code, ok := e.intern[key]
	if !ok {
		code = len(e.intern) + 1
		e.intern[key] = code
	}
	return code
}

// PathValueEqual reports whether path p1 on tree t1 and path p2 on
// tree t2 are path-value equal per Definition 4: the nodes matched by
// p1 and the nodes matched by p2 admit a one-to-one node-value-equal
// correspondence (multiset equality of subtree codes). A shared
// encoder is used so codes are comparable across the two trees.
func PathValueEqual(t1 *Tree, p1 string, t2 *Tree, p2 string) bool {
	var e Encoder
	n1 := t1.NodesAt(pathOf(p1))
	n2 := t2.NodesAt(pathOf(p2))
	if len(n1) != len(n2) {
		return false
	}
	return e.MultisetCode(n1) == e.MultisetCode(n2)
}

// Package datatree implements the XML data model of Yu & Jagadish
// (VLDB 2006), Definition 2: a rooted labeled tree of data nodes,
// each carrying a label and a node key that uniquely identifies it,
// with value assignments on leaf nodes. Node keys are assigned in
// pre-order traversal, matching the paper's Figure 1.
//
// The package loads and stores trees as XML documents (attributes are
// represented as child nodes labeled "@name"; a single text chunk in
// mixed content is kept under "@text"), implements node-value
// equality (Definition 3) and path-value equality (Definition 4) via
// canonical unordered-subtree encodings, checks conformance of a tree
// to a schema, and infers a schema from data.
package datatree

import (
	"fmt"
	"sort"
	"strings"

	"discoverxfd/internal/schema"
)

// Node is one data node of a tree. Leaf nodes carry a value; complex
// nodes carry children. A node labeled "@x" represents an XML
// attribute x of its parent, and "@text" the text chunk of a
// mixed-content element.
type Node struct {
	Label    string
	Key      int // pre-order key, unique within the tree
	Parent   *Node
	Children []*Node

	// Value and HasValue hold the value assignment of a leaf node.
	Value    string
	HasValue bool
}

// Tree is a rooted labeled data tree.
type Tree struct {
	Root *Node
	size int
	// next is the next fresh node key Graft hands out (0 = not yet
	// computed). Grafted keys grow beyond the pre-order range, which
	// keeps every existing key stable under mutation — incremental
	// updates depend on that — while preserving the parent-before-
	// descendant key order NodeByKey's pruning relies on.
	next int
	// setHints records element paths the document source declared
	// repeatable independent of the observed occurrence counts — a
	// JSON array is a set element even when every instance happens to
	// hold one member, which bare repetition counting cannot see.
	// InferSchema unions these hints with the observed repetition.
	// XML carries no such declaration, so XML trees leave this nil.
	setHints map[schema.Path]bool
}

// HintSet marks the element path as declared-repeatable by the
// document source (see Tree.setHints). The root path cannot be a set
// element and is ignored.
func (t *Tree) HintSet(p schema.Path) {
	if t.Root != nil && p == schema.PathOf(t.Root.Label) {
		return
	}
	if t.setHints == nil {
		t.setHints = make(map[schema.Path]bool)
	}
	t.setHints[p] = true
}

// SetHinted reports whether the path carries a declared-repeatable
// hint.
func (t *Tree) SetHinted(p schema.Path) bool { return t.setHints[p] }

// SetHints returns the declared-repeatable paths in sorted order.
func (t *Tree) SetHints() []schema.Path {
	out := make([]schema.Path, 0, len(t.setHints))
	for p := range t.setHints {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NewTree wraps a constructed root node into a tree and assigns
// pre-order keys starting at 1.
func NewTree(root *Node) *Tree {
	t := &Tree{Root: root}
	t.Renumber()
	return t
}

// Renumber reassigns pre-order node keys (starting at 1) and parent
// pointers, and recomputes the node count. Call after structural
// edits.
func (t *Tree) Renumber() {
	key := 0
	var rec func(n, parent *Node)
	rec = func(n, parent *Node) {
		key++
		n.Key = key
		n.Parent = parent
		for _, c := range n.Children {
			rec(c, n)
		}
	}
	if t.Root != nil {
		rec(t.Root, nil)
	}
	t.size = key
	t.next = key + 1
}

// Size returns the number of nodes in the tree.
func (t *Tree) Size() int { return t.size }

// AddChild appends a child node and returns it. Keys are not
// maintained incrementally; call Renumber when construction is done.
func (n *Node) AddChild(label string) *Node {
	c := &Node{Label: label, Parent: n}
	n.Children = append(n.Children, c)
	return c
}

// AddLeaf appends a leaf child with a value and returns it.
func (n *Node) AddLeaf(label, value string) *Node {
	c := n.AddChild(label)
	c.Value = value
	c.HasValue = true
	return c
}

// Clone returns a parentless deep copy of the subtree rooted at n that
// shares no memory with it: every node, child list and value is
// allocated anew. A subtree delivered by StreamRootChildren shares
// the parse's slabs and value chunks with the subtrees around it; a
// caller that keeps one keeps its Clone, which holds only itself.
func (n *Node) Clone() *Node {
	c := &Node{Label: n.Label, Key: n.Key, Value: strings.Clone(n.Value), HasValue: n.HasValue}
	if len(n.Children) > 0 {
		c.Children = make([]*Node, len(n.Children))
		for i, k := range n.Children {
			c.Children[i] = k.Clone()
			c.Children[i].Parent = c
		}
	}
	return c
}

// Graft appends a new child node under parent with a fresh key and
// returns it. Unlike AddChild+Renumber, grafting never renumbers
// existing nodes: the new key is taken past every key handed out so
// far, so keys stay stable under mutation (what the incremental
// update path needs) and a node's key still precedes its descendants'
// keys (what NodeByKey's pruning needs).
func (t *Tree) Graft(parent *Node, label string) *Node {
	if t.next == 0 {
		// A hand-assembled tree that never went through Renumber:
		// derive the fresh-key floor from the keys actually present.
		max := 0
		t.Root.Walk(func(n *Node) bool {
			if n.Key > max {
				max = n.Key
			}
			return true
		})
		t.next = max + 1
	}
	c := parent.AddChild(label)
	c.Key = t.next
	t.next++
	t.size++
	return c
}

// Prune detaches the subtree rooted at n from its parent and adjusts
// the node count. Pruning the root is not supported.
func (t *Tree) Prune(n *Node) {
	p := n.Parent
	if p == nil {
		panic("datatree: cannot prune the root")
	}
	for i, c := range p.Children {
		if c == n {
			p.Children = append(p.Children[:i], p.Children[i+1:]...)
			break
		}
	}
	n.Parent = nil
	removed := 0
	n.Walk(func(*Node) bool { removed++; return true })
	t.size -= removed
}

// Path returns the absolute path of the node (/e1/…/ek).
func (n *Node) Path() schema.Path {
	var steps []string
	for m := n; m != nil; m = m.Parent {
		steps = append(steps, m.Label)
	}
	for i, j := 0, len(steps)-1; i < j; i, j = i+1, j-1 {
		steps[i], steps[j] = steps[j], steps[i]
	}
	return schema.PathOf(steps...)
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Child returns the first child with the given label, or nil.
func (n *Node) Child(label string) *Node {
	for _, c := range n.Children {
		if c.Label == label {
			return c
		}
	}
	return nil
}

// ChildrenLabeled returns all children with the given label in
// document order.
func (n *Node) ChildrenLabeled(label string) []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Label == label {
			out = append(out, c)
		}
	}
	return out
}

// Walk visits the subtree rooted at n in pre-order. If visit returns
// false the node's descendants are skipped.
func (n *Node) Walk(visit func(*Node) bool) {
	if n == nil || !visit(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(visit)
	}
}

// NodesAt returns all nodes of the tree whose path equals p, in
// pre-order. The path is interpreted structurally: each step must
// match a child label.
func (t *Tree) NodesAt(p schema.Path) []*Node {
	steps := p.Steps()
	if t.Root == nil || len(steps) == 0 || t.Root.Label != steps[0] {
		return nil
	}
	cur := []*Node{t.Root}
	for _, step := range steps[1:] {
		var next []*Node
		for _, n := range cur {
			next = append(next, n.ChildrenLabeled(step)...)
		}
		cur = next
		if len(cur) == 0 {
			return nil
		}
	}
	return cur
}

// NodeByKey returns the node with the given pre-order key, or nil.
func (t *Tree) NodeByKey(key int) *Node {
	var found *Node
	if t.Root == nil {
		return nil
	}
	t.Root.Walk(func(n *Node) bool {
		if found != nil {
			return false
		}
		if n.Key == key {
			found = n
			return false
		}
		// Pre-order keys are monotone; prune subtrees that start
		// beyond the target.
		return n.Key < key
	})
	return found
}

// String renders the tree in a compact indented debug form:
// label[key]=value per line.
func (t *Tree) String() string {
	var b strings.Builder
	var rec func(n *Node, depth int)
	rec = func(n *Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		fmt.Fprintf(&b, "%s[%d]", n.Label, n.Key)
		if n.HasValue {
			fmt.Fprintf(&b, "=%q", n.Value)
		}
		b.WriteByte('\n')
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	if t.Root != nil {
		rec(t.Root, 0)
	}
	return b.String()
}

// SortChildren recursively orders children by label (then by key) —
// useful for deterministic golden output; the data model itself is
// unordered.
func (t *Tree) SortChildren() {
	var rec func(n *Node)
	rec = func(n *Node) {
		sort.SliceStable(n.Children, func(i, j int) bool {
			if n.Children[i].Label != n.Children[j].Label {
				return n.Children[i].Label < n.Children[j].Label
			}
			return n.Children[i].Key < n.Children[j].Key
		})
		for _, c := range n.Children {
			rec(c)
		}
	}
	if t.Root != nil {
		rec(t.Root)
	}
}

package datatree

import (
	"strings"
	"unsafe"
)

// slabBytes is the payload of one slab: the 4 KiB size class less the
// 8-byte malloc header Go puts on a pointerful object over 512 bytes,
// so a full slab fills its class exactly instead of spilling into the
// next one.
const slabBytes = 4096 - 8

// The slab capacities: 51 nodes and 511 child pointers on a 64-bit
// platform. A value chunk holds no pointers, so it carries no header.
const (
	nodeSlab  = slabBytes / int(unsafe.Sizeof(Node{}))
	ptrSlab   = slabBytes / int(unsafe.Sizeof((*Node)(nil)))
	textChunk = 4096
)

// groupSlabs is how many node slabs a stream fills before the next
// root child starts fresh slabs (see Arena.boundary).
const groupSlabs = 32

// Arena hands out the nodes, child lists and leaf values of one parse
// from slabs, so a parse allocates per slab rather than per node. It
// is the only way the XML and JSON parsers build trees. Four rules
// keep a slab-built tree as cheap as and indistinguishable from one
// built node by node:
//
//   - Slabs fit Go's size classes: the []Node and []*Node slabs leave
//     room for the malloc header (slabBytes).
//   - Slabs stay small, since every parse pays for the unused tails
//     of its last slabs. A child list or value over a quarter of a
//     slab gets its own allocation, so a slab never wastes more than
//     a quarter of itself on a tail too short for the next item.
//   - Child lists have cap == len, so AddChild and Graft on a parsed
//     node reallocate instead of writing into the next node's list,
//     and Prune or an in-place filter writes only inside its own list.
//   - Values need no unsafe: a value is appended to a strings.Builder
//     chunk and sliced from the chunk's String, and the builder never
//     rewrites bytes it has handed out, so every value stays immutable.
//
// The zero Arena is ready to use. An Arena must not be copied after
// first use.
type Arena struct {
	nodes  []Node          // the unused tail of the current node slab
	ptrs   []*Node         // the unused tail of the current child-list slab
	text   strings.Builder // the current value chunk
	filled int             // node slabs started since the last boundary cut
}

// Node returns a fresh node labeled label.
func (a *Arena) Node(label string) *Node {
	if len(a.nodes) == 0 {
		a.nodes = make([]Node, nodeSlab)
		a.filled++
	}
	n := &a.nodes[0]
	a.nodes = a.nodes[1:]
	n.Label = label
	return n
}

// Children returns a copy of kids whose capacity equals its length,
// or nil when kids is empty.
func (a *Arena) Children(kids []*Node) []*Node {
	k := len(kids)
	if k == 0 {
		return nil
	}
	if k > len(a.ptrs) {
		if k > ptrSlab/4 {
			return append(make([]*Node, 0, k), kids...)
		}
		a.ptrs = make([]*Node, ptrSlab)
	}
	list := a.ptrs[:k:k]
	a.ptrs = a.ptrs[k:]
	copy(list, kids)
	return list
}

// Value returns b as a string, copied into the current value chunk.
func (a *Arena) Value(b []byte) string {
	k := len(b)
	if k == 0 {
		return ""
	}
	if k > a.text.Cap()-a.text.Len() {
		if k > textChunk/4 {
			return string(b)
		}
		a.text = strings.Builder{}
		a.text.Grow(textChunk)
	}
	start := a.text.Len()
	a.text.Write(b)
	return a.text.String()[start:]
}

// leaf returns a fresh leaf node under parent carrying value.
func (a *Arena) leaf(label, value string, parent *Node) *Node {
	n := a.Node(label)
	n.Parent, n.Value, n.HasValue = parent, value, true
	return n
}

// boundary marks the start of a root child in a stream. Slabs link
// the subtrees they hold: a node's Parent and Children point into
// other slabs, and a live slab keeps every node in it reachable. A
// stream that shared slabs across all its root children would let
// the current slab, or one subtree the caller keeps, pin every
// subtree before and after it. So once a group has started
// groupSlabs node slabs, the next root child starts a new group of
// fresh node and child-list slabs, and nothing in the finished group
// points into a later one. Value chunks hold no pointers and link
// nothing, so they carry on.
func (a *Arena) boundary() {
	if a.filled >= groupSlabs {
		a.nodes, a.ptrs, a.filled = nil, nil, 0
	}
}

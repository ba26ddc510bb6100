package datatree

import (
	"fmt"
	"strconv"
	"strings"

	"discoverxfd/internal/schema"
)

// InferSchema derives a schema (Definition 1) from a data tree. The
// inference follows the conventions of the paper's data model:
//
//   - an element is a set element (SetOf) if any parent node in the
//     data has two or more children with its label, or if the document
//     source declared the path repeatable (Tree.HintSet — a JSON array
//     is a set element even when observed with one member everywhere);
//   - an element that ever has element children is a record (Choice
//     types are not inferable from a single document and are inferred
//     as Rcd — a Choice instance conforms to the corresponding Rcd
//     with missing elements);
//   - a leaf element's simple type is the most specific of int, float,
//     str that all its observed values parse as; elements observed
//     only without values default to str.
//
// The resulting schema is guaranteed to accept the tree it was
// inferred from (see Conform).
func InferSchema(t *Tree) (*schema.Schema, error) {
	if t == nil || t.Root == nil {
		return nil, fmt.Errorf("datatree: cannot infer schema from empty tree")
	}
	in := inference{ids: make(map[pathStep]int)}
	in.paths = append(in.paths, pathInfo{label: t.Root.Label})
	in.walk(t.Root, 0)
	return schema.New(t.Root.Label, in.build(t, 0, schema.PathOf(t.Root.Label)))
}

// inference holds what InferSchema learned about each element path of
// a tree. Paths are interned as ids from (parent id, label), so the
// walk builds no path string and allocates per distinct path only;
// the path strings are built once each, when the schema is assembled.
type inference struct {
	paths []pathInfo
	ids   map[pathStep]int // index into the parent path's children
	nodes int              // nodes with children visited so far, for pathInfo.under
}

// pathStep names a child path by its parent path id and its label.
type pathStep struct {
	parent int32
	label  string
}

// pathInfo is what inference learned about one path.
type pathInfo struct {
	label    string
	children []int32 // child path ids in order of first appearance
	last     int     // index in children of the child path found last
	set      bool
	complex_ bool
	leaf     leafKind
	// under is the visit number of the last node at the parent path
	// seen with a child at this path; seeing the number again means
	// the parent holds two or more, so the element is a set element.
	under int
}

// leafKind is the most specific simple type admitting every value
// seen at a path: int ⊂ float ⊂ str, with noValue below all three.
type leafKind uint8

const (
	noValue leafKind = iota
	intValue
	floatValue
	strValue
)

// widen returns the most specific kind admitting k's values and v.
// Every string ParseInt accepts in base 10 parses as a float too, so a
// float path needs only ParseFloat and a str path no parse at all.
func (k leafKind) widen(v string) leafKind {
	if k == strValue {
		return k
	}
	v = strings.TrimSpace(v)
	if k == floatValue {
		if _, err := strconv.ParseFloat(v, 64); err != nil {
			return strValue
		}
		return k
	}
	if _, err := strconv.ParseInt(v, 10, 64); err == nil {
		return intValue
	}
	if _, err := strconv.ParseFloat(v, 64); err == nil {
		return floatValue
	}
	return strValue
}

// walk records node n, found at path id, and its subtree.
func (in *inference) walk(n *Node, id int32) {
	if n.HasValue {
		in.paths[id].leaf = in.paths[id].leaf.widen(n.Value)
	}
	if len(n.Children) == 0 {
		return
	}
	in.paths[id].complex_ = true
	in.nodes++
	visit := in.nodes
	for _, c := range n.Children {
		cid := in.child(id, c.Label)
		// Only nodes at path id touch the marks of its child paths,
		// and none of them lies below n, so walking c first is safe.
		if in.paths[cid].under == visit {
			in.paths[cid].set = true
		}
		in.paths[cid].under = visit
		in.walk(c, cid)
	}
}

// child returns the id of the path label under path id, interning it
// on first sight. Siblings mostly repeat a label or follow the label
// order of the previous node at the path, so the lookup tries the
// child path found last and the one after it before the map.
func (in *inference) child(id int32, label string) int32 {
	p := &in.paths[id]
	if k := len(p.children); k > 0 {
		if c := p.children[p.last]; in.paths[c].label == label {
			return c
		}
		next := (p.last + 1) % k
		if c := p.children[next]; in.paths[c].label == label {
			p.last = next
			return c
		}
	}
	i, ok := in.ids[pathStep{id, label}]
	if !ok {
		i = len(p.children)
		in.ids[pathStep{id, label}] = i
		p.children = append(p.children, int32(len(in.paths)))
		in.paths = append(in.paths, pathInfo{label: label}) // may move *p
		p = &in.paths[id]
	}
	p.last = i
	return p.children[i]
}

// build assembles the schema type of path id, whose string is p.
func (in *inference) build(t *Tree, id int32, p schema.Path) *schema.Type {
	info := &in.paths[id]
	var typ *schema.Type
	switch {
	case info.complex_:
		fields := make([]schema.Field, 0, len(info.children))
		for _, c := range info.children {
			label := in.paths[c].label
			fields = append(fields, schema.F(label, in.build(t, c, p.Child(label))))
		}
		typ = schema.Rcd(fields...)
	case info.leaf == intValue:
		typ = schema.Simple(schema.Int)
	case info.leaf == floatValue:
		typ = schema.Simple(schema.Float)
	default: // strValue, or noValue when every node seen was valueless
		typ = schema.Simple(schema.String)
	}
	if info.set || t.SetHinted(p) {
		typ = schema.SetOf(typ)
	}
	return typ
}

// Conform checks that the tree conforms to the schema: every node's
// label is declared at its path, non-set elements occur at most once
// per parent, Choice elements have at most one alternative present,
// leaf values parse as their declared simple type, and complex nodes
// do not carry direct values. It returns the first violation found,
// or nil.
func Conform(t *Tree, s *schema.Schema) error {
	if t == nil || t.Root == nil {
		return fmt.Errorf("datatree: empty tree")
	}
	if t.Root.Label != s.Root {
		return fmt.Errorf("datatree: root label %q does not match schema root %q", t.Root.Label, s.Root)
	}
	var rec func(n *Node, el schema.Element) error
	rec = func(n *Node, el schema.Element) error {
		switch el.Payload.Kind {
		case schema.String, schema.Int, schema.Float:
			if len(n.Children) > 0 {
				return fmt.Errorf("datatree: node %s[%d] declared %s but has children",
					n.Path(), n.Key, el.Payload.Kind)
			}
			if !n.HasValue {
				// An empty element of simple type is a missing value;
				// tolerated (strong-satisfaction null).
				return nil
			}
			v := strings.TrimSpace(n.Value)
			switch el.Payload.Kind {
			case schema.Int:
				if _, err := strconv.ParseInt(v, 10, 64); err != nil {
					return fmt.Errorf("datatree: node %s[%d]: value %q is not an int", n.Path(), n.Key, n.Value)
				}
			case schema.Float:
				if _, err := strconv.ParseFloat(v, 64); err != nil {
					return fmt.Errorf("datatree: node %s[%d]: value %q is not a float", n.Path(), n.Key, n.Value)
				}
			}
			return nil
		case schema.Record, schema.Choice:
			if n.HasValue {
				return fmt.Errorf("datatree: complex node %s[%d] carries a direct value %q (mixed content must use %s)",
					n.Path(), n.Key, n.Value, TextLabel)
			}
			declared := make(map[string]schema.Field, len(el.Payload.Fields))
			for _, f := range el.Payload.Fields {
				declared[f.Label] = f
			}
			counts := make(map[string]int)
			present := 0
			for _, c := range n.Children {
				f, ok := declared[c.Label]
				if !ok {
					return fmt.Errorf("datatree: node %s[%d]: undeclared child %q", n.Path(), n.Key, c.Label)
				}
				counts[c.Label]++
				if counts[c.Label] == 1 {
					present++
				}
				if counts[c.Label] > 1 && f.Type.Kind != schema.Set {
					return fmt.Errorf("datatree: node %s[%d]: non-set child %q occurs %d times",
						n.Path(), n.Key, c.Label, counts[c.Label])
				}
				childEl := schema.Element{
					Path: el.Path.Child(c.Label), Label: c.Label, Type: f.Type,
				}
				childEl.Payload = f.Type
				if f.Type.Kind == schema.Set {
					childEl.Repeatable = true
					childEl.Payload = f.Type.Elem
				}
				if err := rec(c, childEl); err != nil {
					return err
				}
			}
			if el.Payload.Kind == schema.Choice && present > 1 {
				return fmt.Errorf("datatree: node %s[%d]: Choice element has %d alternatives present",
					n.Path(), n.Key, present)
			}
			return nil
		default:
			return fmt.Errorf("datatree: unknown schema kind at %s", el.Path)
		}
	}
	rootEl, err := s.Resolve(schema.PathOf(s.Root))
	if err != nil {
		return err
	}
	return rec(t.Root, rootEl)
}

func pathOf(p string) schema.Path { return schema.Path(p) }

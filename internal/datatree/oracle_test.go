package datatree

import (
	"context"
	"encoding/xml"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"discoverxfd/internal/schema"
)

// parseXMLOracle is the encoding/xml token loop that ParseXMLContext
// ran before the byte-window scanner replaced it, kept verbatim as the
// differential oracle: the scanner must accept exactly the documents
// this loop accepts and build the same trees.
func parseXMLOracle(ctx context.Context, r io.Reader, lim ParseLimits) (*Tree, error) {
	dec := xml.NewDecoder(r)
	guard := &parseGuard{ctx: ctx, lim: lim}
	var root *Node
	var stack []*Node
	var texts []*strings.Builder

	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("datatree: XML parse error: %w", err)
		}
		if err := guard.tick(); err != nil {
			return nil, err
		}
		switch tk := tok.(type) {
		case xml.StartElement:
			if err := guard.checkDepth(len(stack) + 1); err != nil {
				return nil, err
			}
			n := &Node{Label: tk.Name.Local}
			for _, a := range tk.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				n.AddLeaf("@"+a.Name.Local, a.Value)
			}
			if err := guard.addNodes(1 + len(n.Children)); err != nil {
				return nil, err
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, fmt.Errorf("datatree: multiple root elements (%q and %q)", root.Label, n.Label)
				}
				root = n
			} else {
				p := stack[len(stack)-1]
				n.Parent = p
				p.Children = append(p.Children, n)
			}
			stack = append(stack, n)
			texts = append(texts, &strings.Builder{})
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("datatree: unbalanced end element %q", tk.Name.Local)
			}
			n := stack[len(stack)-1]
			text := strings.TrimSpace(texts[len(texts)-1].String())
			stack = stack[:len(stack)-1]
			texts = texts[:len(texts)-1]
			if text != "" {
				if len(n.Children) == 0 {
					n.Value = text
					n.HasValue = true
				} else {
					n.AddLeaf(TextLabel, text)
					if err := guard.addNodes(1); err != nil {
						return nil, err
					}
				}
			}
		case xml.CharData:
			if len(texts) > 0 {
				texts[len(texts)-1].Write(tk)
			}
		}
	}
	if root == nil {
		return nil, fmt.Errorf("datatree: document has no root element")
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("datatree: unexpected EOF inside element %q", stack[len(stack)-1].Label)
	}
	return NewTree(root), nil
}

// CheckIngestMatchesOracle fails t unless InferSchema and the Encoder
// agree with their oracles on tr. The schemas must print the same.
// Over every node of tr and of a sibling-shuffled copy, encoded with
// one shared encoder, the node's code and the multiset and list codes
// of its children must be equal exactly when the oracle's are. It is
// exported for the generator test in package datatree_test.
func CheckIngestMatchesOracle(t *testing.T, tr *Tree) {
	t.Helper()
	got, err := InferSchema(tr)
	want, oerr := inferSchemaOracle(tr)
	if (err == nil) != (oerr == nil) {
		t.Fatalf("InferSchema error %v, oracle error %v", err, oerr)
	}
	if err == nil && got.String() != want.String() {
		t.Fatalf("inferred schema differs from the oracle's\ngot:\n%swant:\n%s", got, want)
	}

	shuf := shuffleTree(rand.New(rand.NewSource(int64(tr.Size()))), tr.Root)
	var nodes []*Node
	for _, root := range []*Node{tr.Root, shuf} {
		root.Walk(func(n *Node) bool {
			nodes = append(nodes, n)
			return true
		})
	}
	var enc Encoder
	var oracle oracleEncoder
	codes := make([]int, 0, 3*len(nodes))
	ocodes := make([]int, 0, 3*len(nodes))
	for _, n := range nodes {
		codes = append(codes, enc.Encode(n), enc.MultisetCode(n.Children), enc.ListCode(n.Children))
		ocodes = append(ocodes, oracle.Encode(n), oracle.MultisetCode(n.Children), oracle.ListCode(n.Children))
	}
	if i, j, ok := classMismatch(codes, ocodes); ok {
		kinds := [3]string{"Encode", "MultisetCode of the children", "ListCode of the children"}
		t.Fatalf("%s of %s[%d] and %s of %s[%d]: codes %d, %d; oracle codes %d, %d",
			kinds[i%3], nodes[i/3].Label, nodes[i/3].Key, kinds[j%3], nodes[j/3].Label, nodes[j/3].Key,
			codes[i], codes[j], ocodes[i], ocodes[j])
	}
}

// classMismatch returns i < j such that a[i] == a[j] and b[i] != b[j],
// or the other way round, and whether there is such a pair. Comparing
// each index with the first index of its class on both sides finds
// one in linear time whenever one exists.
func classMismatch(a, b []int) (i, j int, found bool) {
	firstA := make(map[int]int)
	firstB := make(map[int]int)
	for j := range a {
		ia, okA := firstA[a[j]]
		ib, okB := firstB[b[j]]
		switch {
		case okA && b[ia] != b[j]:
			return ia, j, true
		case okB && a[ib] != a[j]:
			return ib, j, true
		}
		if !okA {
			firstA[a[j]] = j
		}
		if !okB {
			firstB[b[j]] = j
		}
	}
	return 0, 0, false
}

// inferSchemaOracle is the InferSchema that walked the tree with a
// path string and a counts map per node, kept verbatim as the
// differential oracle: inference over interned path ids must give the
// same schema on every tree.
func inferSchemaOracle(t *Tree) (*schema.Schema, error) {
	if t == nil || t.Root == nil {
		return nil, fmt.Errorf("datatree: cannot infer schema from empty tree")
	}
	type info struct {
		set      bool
		complex_ bool
		sawInt   bool
		sawFloat bool
		sawStr   bool
		sawAny   bool
		children map[string]bool
		order    []string
	}
	infos := make(map[schema.Path]*info)
	get := func(p schema.Path) *info {
		in := infos[p]
		if in == nil {
			in = &info{children: make(map[string]bool)}
			infos[p] = in
		}
		return in
	}

	var rec func(n *Node, p schema.Path)
	rec = func(n *Node, p schema.Path) {
		in := get(p)
		counts := make(map[string]int)
		for _, c := range n.Children {
			counts[c.Label]++
			if !in.children[c.Label] {
				in.children[c.Label] = true
				in.order = append(in.order, c.Label)
			}
		}
		if len(n.Children) > 0 {
			in.complex_ = true
		}
		for label, cnt := range counts {
			if cnt > 1 {
				get(p.Child(label)).set = true
			}
		}
		if n.HasValue {
			in.sawAny = true
			v := strings.TrimSpace(n.Value)
			if _, err := strconv.ParseInt(v, 10, 64); err == nil {
				in.sawInt = true
			} else if _, err := strconv.ParseFloat(v, 64); err == nil {
				in.sawFloat = true
			} else {
				in.sawStr = true
			}
		}
		for _, c := range n.Children {
			rec(c, p.Child(c.Label))
		}
	}
	rootPath := schema.PathOf(t.Root.Label)
	rec(t.Root, rootPath)

	tree := t // build's local t shadows the parameter
	var build func(p schema.Path) *schema.Type
	build = func(p schema.Path) *schema.Type {
		in := infos[p]
		var t *schema.Type
		if in.complex_ {
			fields := make([]schema.Field, 0, len(in.order))
			for _, label := range in.order {
				fields = append(fields, schema.F(label, build(p.Child(label))))
			}
			t = schema.Rcd(fields...)
		} else {
			switch {
			case in.sawStr || !in.sawAny:
				t = schema.Simple(schema.String)
			case in.sawFloat:
				t = schema.Simple(schema.Float)
			case in.sawInt:
				t = schema.Simple(schema.Int)
			default:
				t = schema.Simple(schema.String)
			}
		}
		if in.set || tree.SetHinted(p) {
			t = schema.SetOf(t)
		}
		return t
	}
	return schema.New(t.Root.Label, build(rootPath))
}

// oracleEncoder is the Encoder that keyed each subtree by a decimal
// string of its child codes and memoized every node, kept verbatim
// (less the methods the oracle check does not call) as the
// differential oracle: codes must be equal exactly when its codes are.
type oracleEncoder struct {
	intern map[string]int
	cache  map[*Node]int
}

// Encode returns the canonical code of the subtree rooted at n.
func (e *oracleEncoder) Encode(n *Node) int {
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

func (e *oracleEncoder) MultisetCode(nodes []*Node) int {
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
func (e *oracleEncoder) MultisetOfCodes(codes []int) int {
	if e.intern == nil {
		e.intern = make(map[string]int)
		e.cache = make(map[*Node]int)
	}
	sort.Ints(codes)
	return e.internCodes("ms", codes)
}

func (e *oracleEncoder) ListCode(nodes []*Node) int {
	codes := make([]int, len(nodes))
	for i, n := range nodes {
		codes[i] = e.Encode(n)
	}
	return e.ListOfCodes(codes)
}

// ListOfCodes interns an ordered list of already-encoded subtree
// codes: the ordered counterpart of MultisetOfCodes.
func (e *oracleEncoder) ListOfCodes(codes []int) int {
	if e.intern == nil {
		e.intern = make(map[string]int)
		e.cache = make(map[*Node]int)
	}
	return e.internCodes("ls", codes)
}

func (e *oracleEncoder) internCodes(tag string, codes []int) int {
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

package jsondoc

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"discoverxfd/internal/datatree"
	"discoverxfd/internal/schema"
)

// decoderParser carries the decoding state: the token stream, the resource
// guard, and the set-element hints collected from arrays.
type decoderParser struct {
	ctx    context.Context
	dec    *json.Decoder
	lim    datatree.ParseLimits
	nodes  int
	tokens int
	hints  map[schema.Path]bool
}

// parseDecoder is the encoding/json token loop that ParseContext ran
// before the byte scanner replaced it, kept unchanged (but for its
// names) as the differential oracle: the scanner must accept exactly
// the documents this loop accepts, and build the same trees with the
// same set hints.
func parseDecoder(ctx context.Context, r io.Reader, lim datatree.ParseLimits) (*datatree.Tree, error) {
	dec := json.NewDecoder(r)
	dec.UseNumber() // keep number literals verbatim (and member order deterministic)
	p := &decoderParser{ctx: ctx, dec: dec, lim: lim, hints: make(map[schema.Path]bool)}

	tok, err := p.next()
	if err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("jsondoc: document is empty")
		}
		return nil, err
	}
	var root *datatree.Node
	switch d, ok := tok.(json.Delim); {
	case ok && d == '{':
		if root, err = p.rootObject(); err != nil {
			return nil, err
		}
	case ok && d == '[':
		root = &datatree.Node{Label: SyntheticRoot}
		p.nodes++
		if err := p.array(root, ItemLabel, schema.PathOf(SyntheticRoot).Child(ItemLabel), 2); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("jsondoc: top-level value must be an object or array, got %v", tok)
	}
	if _, err := p.dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("jsondoc: trailing data after the document (offset %d)", p.dec.InputOffset())
	}
	if err := p.normalizeMixed(root); err != nil {
		return nil, err
	}
	t := datatree.NewTree(root)
	paths := make([]schema.Path, 0, len(p.hints))
	for h := range p.hints {
		paths = append(paths, h)
	}
	sort.Slice(paths, func(i, j int) bool { return paths[i] < paths[j] })
	for _, h := range paths {
		t.HintSet(h)
	}
	return t, nil
}

// rootObject parses the top-level object (its '{' already consumed):
// a single member holding an object names the root element, anything
// else lands under the synthetic root. The decoder has no lookahead,
// so the first member is parsed as the root candidate and demoted
// under the synthetic root if a second member follows.
func (p *decoderParser) rootObject() (*datatree.Node, error) {
	rootPath := schema.PathOf(SyntheticRoot)
	if !p.dec.More() { // {}
		if err := p.addNodes(1); err != nil {
			return nil, err
		}
		return &datatree.Node{Label: SyntheticRoot}, p.closeObject()
	}
	key, err := p.memberKey()
	if err != nil {
		return nil, err
	}
	tok, err := p.next()
	if err != nil {
		return nil, err
	}
	if d, ok := tok.(json.Delim); ok && d == '{' {
		// Candidate {"label": {...}}: parse the object as if it were
		// the root element, then check for a second member.
		if err := p.addNodes(1); err != nil {
			return nil, err
		}
		cand := &datatree.Node{Label: key}
		if err := p.members(cand, schema.PathOf(key), 2); err != nil {
			return nil, err
		}
		if !p.dec.More() {
			return cand, p.closeObject()
		}
		// A second member follows: demote the candidate under the
		// synthetic root, re-anchoring the hints its subtree recorded.
		if err := p.addNodes(1); err != nil {
			return nil, err
		}
		root := &datatree.Node{Label: SyntheticRoot}
		cand.Parent = root
		root.Children = append(root.Children, cand)
		p.reprefixHints(rootPath)
		return root, p.members(root, rootPath, 2)
	}
	if err := p.addNodes(1); err != nil {
		return nil, err
	}
	root := &datatree.Node{Label: SyntheticRoot}
	if err := p.member(root, key, tok, rootPath, 2); err != nil {
		return nil, err
	}
	return root, p.members(root, rootPath, 2)
}

// reprefixHints re-anchors every recorded hint path under prefix —
// needed when the root-candidate subtree turns out to live below the
// synthetic root.
func (p *decoderParser) reprefixHints(prefix schema.Path) {
	moved := make(map[schema.Path]bool, len(p.hints))
	for h := range p.hints {
		moved[schema.Path(string(prefix)+string(h))] = true
	}
	p.hints = moved
}

// members parses the remaining members of an object whose '{' has
// been consumed, attaching children to parent, and consumes the
// closing '}'.
func (p *decoderParser) members(parent *datatree.Node, path schema.Path, depth int) error {
	for p.dec.More() {
		key, err := p.memberKey()
		if err != nil {
			return err
		}
		tok, err := p.next()
		if err != nil {
			return err
		}
		if err := p.member(parent, key, tok, path, depth); err != nil {
			return err
		}
	}
	return p.closeObject()
}

// member attaches one object member (its key and first value token
// already read) to parent. Array values attach one child per array
// member directly — no wrapper node — and hint the path repeatable.
func (p *decoderParser) member(parent *datatree.Node, key string, tok json.Token, path schema.Path, depth int) error {
	if d, ok := tok.(json.Delim); ok && d == '[' {
		return p.array(parent, key, path.Child(key), depth)
	}
	return p.value(tok, parent, key, path.Child(key), depth)
}

// array parses the members of an array (its '[' consumed), attaching
// each as a child of parent labeled label, and hints the element path
// repeatable. An empty array attaches nothing: the element is
// missing.
func (p *decoderParser) array(parent *datatree.Node, label string, path schema.Path, depth int) error {
	if err := validLabel(label); err != nil {
		return err
	}
	p.hints[path] = true
	for p.dec.More() {
		tok, err := p.next()
		if err != nil {
			return err
		}
		if err := p.value(tok, parent, label, path, depth); err != nil {
			return err
		}
	}
	tok, err := p.next()
	if err != nil {
		return err
	}
	if d, ok := tok.(json.Delim); !ok || d != ']' {
		return fmt.Errorf("jsondoc: offset %d: expected ']', got %v", p.dec.InputOffset(), tok)
	}
	return nil
}

// value attaches one JSON value (its first token already read) as a
// child of parent labeled label.
func (p *decoderParser) value(tok json.Token, parent *datatree.Node, label string, path schema.Path, depth int) error {
	if err := validLabel(label); err != nil {
		return err
	}
	if err := p.checkDepth(depth); err != nil {
		return err
	}
	if err := p.addNodes(1); err != nil {
		return err
	}
	switch v := tok.(type) {
	case json.Delim:
		switch v {
		case '{':
			child := parent.AddChild(label)
			return p.members(child, path, depth+1)
		case '[':
			// An array directly inside an array: JSON gives its
			// members no name, so wrap them in a record of "item"s.
			child := parent.AddChild(label)
			return p.array(child, ItemLabel, path.Child(ItemLabel), depth+1)
		default:
			return fmt.Errorf("jsondoc: offset %d: unexpected %q", p.dec.InputOffset(), v.String())
		}
	case string:
		parent.AddLeaf(label, v)
	case json.Number:
		parent.AddLeaf(label, v.String())
	case bool:
		if v {
			parent.AddLeaf(label, "true")
		} else {
			parent.AddLeaf(label, "false")
		}
	case nil:
		parent.AddChild(label) // present but null: a valueless leaf
	default:
		return fmt.Errorf("jsondoc: offset %d: unexpected token %v", p.dec.InputOffset(), tok)
	}
	return nil
}

// memberKey reads an object member key and validates it as an element
// label.
func (p *decoderParser) memberKey() (string, error) {
	tok, err := p.next()
	if err != nil {
		return "", err
	}
	key, ok := tok.(string)
	if !ok {
		return "", fmt.Errorf("jsondoc: offset %d: expected object key, got %v", p.dec.InputOffset(), tok)
	}
	return key, validLabel(key)
}

// closeObject consumes a '}' token.
func (p *decoderParser) closeObject() error {
	tok, err := p.next()
	if err != nil {
		return err
	}
	if d, ok := tok.(json.Delim); !ok || d != '}' {
		return fmt.Errorf("jsondoc: offset %d: expected '}', got %v", p.dec.InputOffset(), tok)
	}
	return nil
}

// next reads one decoder token, ticking the cancellation check.
func (p *decoderParser) next() (json.Token, error) {
	p.tokens++
	if p.tokens%ctxCheckInterval == 0 && p.ctx != nil {
		if err := p.ctx.Err(); err != nil {
			return nil, fmt.Errorf("jsondoc: parse cancelled: %w", err)
		}
	}
	tok, err := p.dec.Token()
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("jsondoc: JSON parse error: %w", err)
	}
	return tok, nil
}

// checkDepth enforces ParseLimits.MaxDepth (the root node is depth 1,
// like the XML parser's element nesting).
func (p *decoderParser) checkDepth(depth int) error {
	if p.lim.MaxDepth > 0 && depth > p.lim.MaxDepth {
		return fmt.Errorf("jsondoc: maximum nesting depth %d exceeded", p.lim.MaxDepth)
	}
	return nil
}

// addNodes counts freshly built nodes against ParseLimits.MaxNodes.
func (p *decoderParser) addNodes(n int) error {
	p.nodes += n
	if p.lim.MaxNodes > 0 && p.nodes > p.lim.MaxNodes {
		return fmt.Errorf("jsondoc: maximum node count %d exceeded", p.lim.MaxNodes)
	}
	return nil
}

// normalizeMixed rewrites heterogeneous paths — paths holding both
// valued leaves and record nodes, as a mixed array like [1, {"a": 2}]
// produces — by moving each leaf's value into an "@text" child, the
// XML front-end's mixed-content convention. Without this the inferred
// schema (which must pick one payload kind per path) could not accept
// the tree. Conversions can cascade one level (the new "@text" leaf
// may itself share a path with records from the data), so the pass
// repeats until it converges; each round strictly moves values deeper
// along paths that already existed, so the depth of the original
// document bounds the rounds.
func (p *decoderParser) normalizeMixed(root *datatree.Node) error {
	const valued, complex_ = 1, 2
	for {
		flags := make(map[schema.Path]int)
		var scan func(n *datatree.Node, path schema.Path)
		scan = func(n *datatree.Node, path schema.Path) {
			if n.HasValue {
				flags[path] |= valued
			}
			if len(n.Children) > 0 {
				flags[path] |= complex_
			}
			for _, c := range n.Children {
				scan(c, path.Child(c.Label))
			}
		}
		rootPath := schema.PathOf(root.Label)
		scan(root, rootPath)

		converted := false
		var rewrite func(n *datatree.Node, path schema.Path) error
		rewrite = func(n *datatree.Node, path schema.Path) error {
			if n.HasValue && flags[path] == valued|complex_ {
				if err := p.addNodes(1); err != nil {
					return err
				}
				n.AddLeaf(datatree.TextLabel, n.Value)
				n.Value, n.HasValue = "", false
				converted = true
			}
			for _, c := range n.Children {
				if err := rewrite(c, path.Child(c.Label)); err != nil {
					return err
				}
			}
			return nil
		}
		if err := rewrite(root, rootPath); err != nil {
			return err
		}
		if !converted {
			return nil
		}
	}
}

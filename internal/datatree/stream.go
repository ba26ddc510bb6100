package datatree

import (
	"bytes"
	"context"
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// StreamRootChildren parses an XML document and delivers each direct
// child of the root element — including the root's attributes, which
// the data model represents as "@name" leaf children, and the root's
// own text, which ParseXML keeps as a trailing "@text" leaf when the
// root has children — as a completed subtree to fn, in document
// order, without retaining the whole tree.
// Each delivered node has correct Parent/Children links within its
// subtree but no pre-order key (the caller assigns identities).
// Memory stays proportional to the largest single child subtree.
//
// It returns the root element's label. A non-nil error from fn aborts
// the parse and is returned verbatim. DefaultLimits applies; use
// StreamRootChildrenContext for explicit limits or cancellation.
func StreamRootChildren(r io.Reader, fn func(child *Node) error) (string, error) {
	return StreamRootChildrenContext(context.Background(), r, DefaultLimits(), fn)
}

// StreamRootChildrenContext is StreamRootChildren with explicit
// resource limits and a context. MaxNodes bounds the cumulative node
// count over all delivered subtrees, not just the retained one;
// cancellation is checked periodically between decoder tokens.
func StreamRootChildrenContext(ctx context.Context, r io.Reader, lim ParseLimits, fn func(child *Node) error) (string, error) {
	dec := xml.NewDecoder(r)
	guard := &parseGuard{ctx: ctx, lim: lim}
	rootLabel := ""
	sawRoot := false
	var stack []*Node // depth-1 subtree under construction (stack[0] is the child)
	var texts []*strings.Builder
	var rootText strings.Builder
	depth := 0    // 0 = before/after root, 1 = inside root
	children := 0 // root children delivered so far

	emit := func(n *Node) error {
		children++
		return fn(n)
	}

	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return rootLabel, fmt.Errorf("datatree: XML parse error: %w", err)
		}
		if err := guard.tick(); err != nil {
			return rootLabel, err
		}
		switch tk := tok.(type) {
		case xml.StartElement:
			if !sawRoot {
				sawRoot = true
				rootLabel = tk.Name.Local
				depth = 1
				if err := guard.addNodes(1 + len(tk.Attr)); err != nil {
					return rootLabel, err
				}
				for _, a := range tk.Attr {
					if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
						continue
					}
					leaf := &Node{Label: "@" + a.Name.Local, Value: a.Value, HasValue: true}
					if err := emit(leaf); err != nil {
						return rootLabel, err
					}
				}
				continue
			}
			if depth == 0 {
				return rootLabel, fmt.Errorf("datatree: multiple root elements (%q and %q)", rootLabel, tk.Name.Local)
			}
			// The root element is depth 1 and subtree nodes under
			// construction sit on the stack, so this element nests at
			// len(stack)+2.
			if err := guard.checkDepth(len(stack) + 2); err != nil {
				return rootLabel, err
			}
			n := &Node{Label: tk.Name.Local}
			for _, a := range tk.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				n.AddLeaf("@"+a.Name.Local, a.Value)
			}
			if err := guard.addNodes(1 + len(n.Children)); err != nil {
				return rootLabel, err
			}
			if len(stack) > 0 {
				p := stack[len(stack)-1]
				n.Parent = p
				p.Children = append(p.Children, n)
			}
			stack = append(stack, n)
			texts = append(texts, &strings.Builder{})
		case xml.EndElement:
			if len(stack) == 0 {
				// Closing the root element. Like ParseXML, keep the
				// root's own text as a trailing @text leaf when the root
				// has children (a childless root's text is its value,
				// which no root child carries).
				depth = 0
				if text := strings.TrimSpace(rootText.String()); text != "" && children > 0 {
					if err := guard.addNodes(1); err != nil {
						return rootLabel, err
					}
					if err := emit(&Node{Label: TextLabel, Value: text, HasValue: true}); err != nil {
						return rootLabel, err
					}
				}
				continue
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
						return rootLabel, err
					}
				}
			}
			if len(stack) == 0 {
				if err := emit(n); err != nil {
					return rootLabel, err
				}
			}
		case xml.CharData:
			if len(texts) > 0 {
				texts[len(texts)-1].Write(tk)
			} else if depth == 1 && (rootText.Len() > 0 || len(bytes.TrimSpace(tk)) > 0) {
				// Leading blank text is trimmed anyway; dropping it keeps
				// an indented document's whitespace from accumulating.
				rootText.Write(tk)
			}
		}
	}
	if !sawRoot {
		return rootLabel, fmt.Errorf("datatree: document has no root element")
	}
	if len(stack) != 0 {
		return rootLabel, fmt.Errorf("datatree: unexpected EOF inside element %q", stack[len(stack)-1].Label)
	}
	return rootLabel, nil
}

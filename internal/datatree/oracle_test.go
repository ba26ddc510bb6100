package datatree

import (
	"context"
	"encoding/xml"
	"fmt"
	"io"
	"strings"
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

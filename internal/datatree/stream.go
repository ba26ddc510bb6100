package datatree

import (
	"bytes"
	"context"
	"fmt"
	"io"
)

// StreamRootChildren parses an XML document and delivers each direct
// child of the root element — including the root's attributes, which
// the data model represents as "@name" leaf children, and the root's
// own text, which ParseXML keeps as a trailing "@text" leaf when the
// root has children — as a completed subtree to fn, in document
// order, without retaining the whole tree.
// Each delivered node has correct Parent/Children links within its
// subtree but no pre-order key (the caller assigns identities).
// Memory stays proportional to the largest single child subtree plus
// the largest single token.
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
// cancellation is checked periodically between tokens.
func StreamRootChildrenContext(ctx context.Context, r io.Reader, lim ParseLimits, fn func(child *Node) error) (string, error) {
	label, _, err := walkRootChildren(ctx, r, lim, fn)
	return label, err
}

// frame is one open element of walkRootChildren.
type frame struct {
	node *Node  // nil for the root, whose children are delivered instead
	kids int    // where the element's children start on the kids stack
	text []byte // the element's character data so far; reused per depth
}

// walkRootChildren is the element loop behind both ParseXML and
// StreamRootChildren: it builds each child subtree of the root element
// from the scanner's tokens and hands it to fn once complete, enforcing
// the limits and checking ctx on the way. It returns the root's label
// and its trimmed text; the text is also delivered as a trailing
// "@text" child when the root has children.
func walkRootChildren(ctx context.Context, r io.Reader, lim ParseLimits, fn func(*Node) error) (label, text string, err error) {
	s := newScanner(r)
	guard := &parseGuard{ctx: ctx, lim: lim}
	var (
		frames   []frame // open elements; frames[0] is the root
		kids     []*Node // completed children of the open elements below the root
		sawRoot  bool
		children int // root children delivered
	)
	emit := func(n *Node) error {
		children++
		return fn(n)
	}
	for {
		kind, err := s.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return label, "", fmt.Errorf("datatree: XML parse error: %w", err)
		}
		if err := guard.tick(); err != nil {
			return label, "", err
		}
		switch kind {
		case tokStart:
			if err := guard.checkDepth(len(frames) + 1); err != nil {
				return label, "", err
			}
			if err := guard.addNodes(1 + len(s.attrs)); err != nil {
				return label, "", err
			}
			var n *Node
			mark := len(kids)
			if len(frames) == 0 {
				if sawRoot {
					return label, "", fmt.Errorf("datatree: multiple root elements (%q and %q)", label, s.name.local)
				}
				sawRoot, label = true, s.name.local
				for _, a := range s.attrs {
					if err := emit(&Node{Label: a.name.attrLabel(), Value: a.value, HasValue: true}); err != nil {
						return label, "", err
					}
				}
			} else {
				n = &Node{Label: s.name.local, Parent: frames[len(frames)-1].node}
				for _, a := range s.attrs {
					kids = append(kids, &Node{Label: a.name.attrLabel(), Parent: n, Value: a.value, HasValue: true})
				}
			}
			if len(frames) < cap(frames) {
				frames = frames[:len(frames)+1]
			} else {
				frames = append(frames, frame{})
			}
			f := &frames[len(frames)-1]
			f.node, f.kids, f.text = n, mark, f.text[:0]
		case tokEnd:
			f := &frames[len(frames)-1]
			trimmed := bytes.TrimSpace(f.text)
			frames = frames[:len(frames)-1]
			n := f.node
			if n == nil {
				// The root closes. A childless root's text is its value,
				// which no root child carries.
				text = string(trimmed)
				if text != "" && children > 0 {
					if err := guard.addNodes(1); err != nil {
						return label, "", err
					}
					if err := emit(&Node{Label: TextLabel, Value: text, HasValue: true}); err != nil {
						return label, "", err
					}
				}
				continue
			}
			own := kids[f.kids:]
			switch {
			case len(trimmed) == 0:
				if len(own) > 0 {
					n.Children = append([]*Node(nil), own...)
				}
			case len(own) == 0:
				n.Value, n.HasValue = string(trimmed), true
			default:
				if err := guard.addNodes(1); err != nil {
					return label, "", err
				}
				n.Children = append(make([]*Node, 0, len(own)+1), own...)
				n.Children = append(n.Children, &Node{Label: TextLabel, Parent: n, Value: string(trimmed), HasValue: true})
			}
			clear(own) // the stack must not keep delivered subtrees alive
			kids = kids[:f.kids]
			if len(frames) == 1 {
				if err := emit(n); err != nil {
					return label, "", err
				}
			} else {
				kids = append(kids, n)
			}
		case tokText:
			// Text outside the root is dropped. Leading blank text is
			// trimmed anyway; skipping it keeps an indented document's
			// whitespace from accumulating.
			if len(frames) > 0 {
				f := &frames[len(frames)-1]
				if len(f.text) > 0 || !isBlank(s.text) {
					f.text = append(f.text, s.text...)
				}
			}
		}
	}
	if !sawRoot {
		return label, "", fmt.Errorf("datatree: document has no root element")
	}
	return label, text, nil
}

// isBlank reports whether b holds only XML white space.
func isBlank(b []byte) bool {
	for _, c := range b {
		if c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			return false
		}
	}
	return true
}

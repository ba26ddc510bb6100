package datatree

import (
	"context"
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// TextLabel is the label under which a single text chunk of a
// mixed-content element is stored, per the paper's Section 2.1
// convention ("we store it under a distinct new @text").
const TextLabel = "@text"

// DefaultMaxDepth is the element-nesting bound applied by ParseXML
// and StreamRootChildren when no explicit limits are given. Real
// documents sit far below it; a deep-nesting bomb hits it after a few
// kilobytes of input instead of exhausting memory.
const DefaultMaxDepth = 10000

// ParseLimits bounds resource use while parsing an XML document.
// The zero value means "no limits"; DefaultLimits returns the bounds
// the convenience entry points (ParseXML, StreamRootChildren) apply.
type ParseLimits struct {
	// MaxDepth bounds element nesting depth (the root element is depth
	// 1). Exceeding it is a parse error. 0 or negative = unlimited.
	MaxDepth int
	// MaxNodes bounds the total number of data nodes built (elements,
	// attribute leaves, and @text leaves all count). Exceeding it is a
	// parse error. 0 or negative = unlimited.
	MaxNodes int
}

// DefaultLimits returns the limits used by ParseXML and
// StreamRootChildren: DefaultMaxDepth nesting, unlimited nodes.
func DefaultLimits() ParseLimits { return ParseLimits{MaxDepth: DefaultMaxDepth} }

// ctxCheckInterval is how many tokens are processed between
// context-cancellation checks in the element loop.
const ctxCheckInterval = 1024

// parseGuard enforces ParseLimits and periodic context checks inside
// the element loop behind ParseXML and StreamRootChildren.
type parseGuard struct {
	ctx    context.Context
	lim    ParseLimits
	nodes  int
	tokens int
}

func (g *parseGuard) tick() error {
	g.tokens++
	if g.tokens%ctxCheckInterval == 0 && g.ctx != nil {
		if err := g.ctx.Err(); err != nil {
			return fmt.Errorf("datatree: parse cancelled: %w", err)
		}
	}
	return nil
}

func (g *parseGuard) checkDepth(depth int) error {
	if g.lim.MaxDepth > 0 && depth > g.lim.MaxDepth {
		return fmt.Errorf("datatree: maximum element depth %d exceeded", g.lim.MaxDepth)
	}
	return nil
}

// addNodes counts n freshly built nodes against the budget.
func (g *parseGuard) addNodes(n int) error {
	g.nodes += n
	if g.lim.MaxNodes > 0 && g.nodes > g.lim.MaxNodes {
		return fmt.Errorf("datatree: maximum node count %d exceeded", g.lim.MaxNodes)
	}
	return nil
}

// ParseXML reads an XML document from r and builds the corresponding
// data tree. XML attributes become leaf children labeled "@name".
// For an element containing both child elements and character data,
// the concatenated text (whitespace-trimmed) is stored as a leaf
// child labeled @text if non-empty; an element with character data
// only becomes a leaf node carrying that value. Element order is
// preserved in the tree but carries no semantics in the data model.
// DefaultLimits applies; use ParseXMLContext for explicit limits or
// cancellation.
func ParseXML(r io.Reader) (*Tree, error) {
	return ParseXMLContext(context.Background(), r, DefaultLimits())
}

// ParseXMLContext is ParseXML with explicit resource limits and a
// context. Cancellation is checked periodically between tokens;
// exceeding a limit or cancellation aborts the parse with a
// "datatree:" error.
func ParseXMLContext(ctx context.Context, r io.Reader, lim ParseLimits) (*Tree, error) {
	root := &Node{}
	label, text, err := walkRootChildren(ctx, r, lim, false, func(c *Node) error {
		root.Children = append(root.Children, c)
		return nil
	})
	if err != nil {
		return nil, err
	}
	root.Label = label
	if len(root.Children) == 0 && text != "" {
		root.Value, root.HasValue = text, true
	}
	return NewTree(root), nil
}

// ParseXMLString is ParseXML over a string.
func ParseXMLString(s string) (*Tree, error) {
	return ParseXML(strings.NewReader(s))
}

// WriteXML serializes the tree as an XML document. Children labeled
// "@name" are emitted as attributes of their parent; "@text" children
// are emitted as character data. Output is indented for readability.
func (t *Tree) WriteXML(w io.Writer) error {
	if t.Root == nil {
		return fmt.Errorf("datatree: empty tree")
	}
	bw := &errWriter{w: w}
	io.WriteString(bw, xml.Header)
	writeNode(bw, t.Root, 0)
	return bw.err
}

// XMLString returns the XML serialization of the tree.
func (t *Tree) XMLString() string {
	var b strings.Builder
	t.WriteXML(&b)
	return b.String()
}

type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, err
}

func writeNode(w io.Writer, n *Node, depth int) {
	indent := strings.Repeat("  ", depth)
	fmt.Fprintf(w, "%s<%s", indent, n.Label)
	var elems []*Node
	var text *Node
	for _, c := range n.Children {
		switch {
		case c.Label == TextLabel:
			text = c
		case strings.HasPrefix(c.Label, "@"):
			fmt.Fprintf(w, " %s=\"%s\"", c.Label[1:], escapeAttr(c.Value))
		default:
			elems = append(elems, c)
		}
	}
	switch {
	case n.HasValue:
		fmt.Fprintf(w, ">%s</%s>\n", escapeText(n.Value), n.Label)
	case len(elems) == 0 && text == nil:
		fmt.Fprintf(w, "/>\n")
	default:
		fmt.Fprintf(w, ">")
		if text != nil {
			fmt.Fprintf(w, "%s", escapeText(text.Value))
		}
		fmt.Fprintf(w, "\n")
		for _, c := range elems {
			writeNode(w, c, depth+1)
		}
		fmt.Fprintf(w, "%s</%s>\n", indent, n.Label)
	}
}

func escapeText(s string) string {
	var b strings.Builder
	xml.EscapeText(&b, []byte(s))
	return b.String()
}

func escapeAttr(s string) string {
	// Attribute values are emitted inside double quotes, so the
	// escaping must cover `"` as well as `&` and `<`. xml.EscapeText
	// escapes all of those, plus `\t`/`\n`/`\r` as character
	// references — which is exactly what double-quoted attribute
	// values need for a lossless ParseXML round trip (a literal
	// newline inside an attribute would otherwise be normalized to a
	// space by the XML decoder).
	return escapeText(s)
}

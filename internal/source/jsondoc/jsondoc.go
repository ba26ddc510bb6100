// Package jsondoc is the JSON document source: it parses JSON
// documents into the same data-tree model the XML front-end produces,
// so schema inference, the hierarchical representation, and discovery
// run unchanged (the nested-dependency mapping of Mior 2021 lands
// exactly on the paper's set-element model). The mapping:
//
//	object member k: {...}   →  one child node labeled k (a singleton
//	                            record element)
//	object member k: [...]   →  one child labeled k per array member,
//	                            and the path is hinted repeatable
//	                            (arrays → set elements, even with one
//	                            member)
//	object member k: scalar  →  a leaf child labeled k carrying the
//	                            value (numbers keep their literal
//	                            spelling, booleans become "true"/
//	                            "false")
//	object member k: null    →  a valueless leaf child — present but
//	                            null, distinct from a missing member
//	                            (the key still shapes the inferred
//	                            schema; an absent key does not)
//	array inside an array    →  a wrapper record whose members are
//	                            children labeled "item" (hinted
//	                            repeatable)
//	empty array              →  no node at all (the member is missing;
//	                            sibling occurrences still shape the
//	                            schema)
//
// The document root follows the common export convention: a top-level
// object with exactly one member whose value is an object names the
// root element; any other top-level object or array becomes the
// payload of a synthetic root labeled "document".
//
// Mixed arrays such as [1, {"a": 2}] hold scalars and records at one
// path; the scalar members are normalized into records carrying their
// value under "@text" — the same convention the XML front-end uses
// for mixed content — so the inferred schema always accepts the tree.
//
// Member names become element labels and must survive the path and
// schema-text notations, so names that are empty, ".", "..", start
// with '#', or contain '/', ':', ',', '{', '}', whitespace, or
// control characters are rejected as unrepresentable.
//
// ParseContext builds the tree in one scan of the input through a
// refillable byte window. It accepts exactly the documents
// encoding/json's Decoder accepts and decodes strings as it does
// (invalid UTF-8 and unpaired surrogate escapes become U+FFFD), but it
// builds no token stream: each member name is validated and interned
// once, element paths are interned ids that carry the set hint and
// the flags mixed-path normalization reads, and nodes, child lists
// and values come from one datatree.Arena. The encoding/json token
// loop it replaced is the differential oracle in oracle_test.go.
package jsondoc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"discoverxfd/internal/datatree"
	"discoverxfd/internal/schema"
)

// SyntheticRoot is the root label given to documents whose top level
// does not name one (a bare array, or an object with several
// members).
const SyntheticRoot = "document"

// ItemLabel is the element label given to the members of an array
// nested directly inside another array, which JSON leaves unnamed.
const ItemLabel = "item"

// Doc is the JSON source backend.
type Doc struct{}

// New returns the JSON source backend.
func New() Doc { return Doc{} }

// Format returns "json".
func (Doc) Format() string { return "json" }

// Extensions returns the file extensions the JSON format claims.
func (Doc) Extensions() []string { return []string{".json"} }

// Sniff reports whether the content prefix looks like a JSON
// document: the first non-whitespace byte opens an object or array.
func (Doc) Sniff(prefix []byte) bool {
	for _, b := range prefix {
		switch b {
		case ' ', '\t', '\r', '\n':
			continue
		case '{', '[':
			return true
		default:
			return false
		}
	}
	return false
}

// Load parses a JSON document into a data tree (ParseContext).
func (Doc) Load(ctx context.Context, r io.Reader, lim datatree.ParseLimits) (*datatree.Tree, error) {
	return ParseContext(ctx, r, lim)
}

// Parse reads a JSON document from r under the parser's default
// limits; use ParseContext for explicit limits or cancellation.
func Parse(r io.Reader) (*datatree.Tree, error) {
	return ParseContext(context.Background(), r, datatree.DefaultLimits())
}

// ParseString is Parse over a string.
func ParseString(s string) (*datatree.Tree, error) {
	return Parse(strings.NewReader(s))
}

// ctxCheckInterval is how many tokens are scanned between
// context-cancellation checks.
const ctxCheckInterval = 1024

// windowSize is the initial size of the byte window. The window
// doubles only when a single token fills it, so a parse's buffer is
// bounded by its largest token. JSON tokens are short, and a 16 KiB
// window parses as fast as a 64 KiB one while allocating 48 KB less
// per document. It is a variable only so that tests can drive small
// inputs through the refill path.
var windowSize = 16 << 10

// maxEmptyReads is how many consecutive (0, nil) reads fill tolerates
// before failing with io.ErrNoProgress, as bufio.Reader does.
const maxEmptyReads = 100

// errShort reports that a token runs past the end of the window: the
// caller refills the window and rescans the token from its start.
var errShort = errors.New("jsondoc: token runs past the window")

// Token kinds next returns besides the six structural characters
// '{', '}', '[', ']', ',' and ':', which stand for themselves.
const (
	tokEOF    byte = 0   // the end of the input
	tokString byte = '"' // decoded text in parser.tok
	tokNumber byte = '0' // literal spelling in parser.tok
	tokTrue   byte = 't'
	tokFalse  byte = 'f'
	tokNull   byte = 'n'
)

// Flags of an element path.
const (
	hinted uint8 = 1 << iota // an array sits at the path: a declared set element
	valued                   // some node at the path carries a value
	record                   // some node at the path has children
)

// elemPath is one interned element path: the path id of its parent
// (-1 for a root) and the name index of its last label.
type elemPath struct {
	parent int32
	name   int32
	flags  uint8
}

// parser is the state of one parse: the byte window over the input,
// the resource guard, the interned member names and element paths,
// the arena the tree is built in, and the stack of finished nodes
// waiting for their parent to close.
type parser struct {
	ctx context.Context
	lim datatree.ParseLimits

	r    io.Reader
	buf  []byte // the window; buf[pos:end] is unread
	pos  int    // start of the next token
	end  int
	off  int    // input offset of buf[0]
	eof  bool   // r has no more bytes
	rerr error  // r's error when it failed with something other than io.EOF
	tok  []byte // the last string or number token; valid until the next scan
	dec  []byte // decoded text of a string with escapes or invalid UTF-8

	nodes  int
	tokens int

	names  map[string]int32 // validated member names → index into labels
	labels []string
	ids    map[uint64]int32 // pathKey(parent, name) → path id
	paths  []elemPath
	arena  datatree.Arena
	kids   []*datatree.Node // finished nodes whose parent is still open
}

// ParseContext is Parse with explicit resource limits and a context.
// Cancellation is checked periodically between tokens; exceeding a
// limit, malformed JSON, an unrepresentable member name, or a failing
// reader (whose error is wrapped) aborts the parse with a "jsondoc:"
// error.
func ParseContext(ctx context.Context, r io.Reader, lim datatree.ParseLimits) (*datatree.Tree, error) {
	p := &parser{
		ctx:   ctx,
		lim:   lim,
		r:     r,
		buf:   make([]byte, windowSize),
		names: make(map[string]int32),
		ids:   make(map[uint64]int32),
	}
	root, rootID, err := p.document()
	if err != nil {
		return nil, err
	}
	if err := p.normalizeMixed(root, rootID); err != nil {
		return nil, err
	}
	t := datatree.NewTree(root)
	for id, e := range p.paths {
		if e.flags&hinted != 0 {
			t.HintSet(p.path(int32(id)))
		}
	}
	return t, nil
}

// document parses the whole input: one top-level object or array,
// then nothing but white space. It returns the root node and its path
// id.
func (p *parser) document() (*datatree.Node, int32, error) {
	c, err := p.next()
	if err != nil {
		return nil, 0, err
	}
	var root *datatree.Node
	var rootID int32
	switch c {
	case tokEOF:
		return nil, 0, errors.New("jsondoc: document is empty")
	case '{':
		root, rootID, err = p.rootObject()
	case '[':
		root = p.arena.Node(SyntheticRoot)
		p.nodes++
		rootID = p.child(-1, p.intern(SyntheticRoot))
		item := p.intern(ItemLabel)
		mark := len(p.kids)
		err = p.array(item, p.child(rootID, item), 2)
		p.adopt(root, rootID, mark)
	default:
		return nil, 0, p.unexpected(c, "an object or array at the top level")
	}
	if err != nil {
		return nil, 0, err
	}
	if c, err = p.next(); err != nil {
		return nil, 0, err
	}
	if c != tokEOF {
		return nil, 0, fmt.Errorf("jsondoc: trailing data after the document (offset %d)", p.off+p.pos)
	}
	return root, rootID, nil
}

// rootObject parses the top-level object, its '{' already read: a
// single member holding an object names the root element, anything
// else lands under the synthetic root. The first member is parsed as
// the root candidate and demoted under the synthetic root if a second
// member follows. Its members stay checked at depth 2 either way.
func (p *parser) rootObject() (*datatree.Node, int32, error) {
	c, err := p.next()
	if err != nil {
		return nil, 0, err
	}
	if c == '}' { // {}
		if err := p.addNodes(1); err != nil {
			return nil, 0, err
		}
		return p.arena.Node(SyntheticRoot), p.child(-1, p.intern(SyntheticRoot)), nil
	}
	name, c, err := p.memberStart(c)
	if err != nil {
		return nil, 0, err
	}
	if err := p.addNodes(1); err != nil {
		return nil, 0, err
	}
	var rootID int32
	mark := len(p.kids)
	if c == '{' {
		// Candidate {"label": {...}}: parse the object as if it were
		// the root element, then check for a second member.
		cand := p.arena.Node(p.labels[name])
		candID := p.child(-1, name)
		if err := p.object(cand, candID, 2); err != nil {
			return nil, 0, err
		}
		if c, err = p.next(); err != nil {
			return nil, 0, err
		}
		if c == '}' {
			return cand, candID, nil
		}
		if err := p.addNodes(1); err != nil {
			return nil, 0, err
		}
		rootID = p.demote(candID)
		p.kids = append(p.kids, cand)
	} else {
		rootID = p.child(-1, p.intern(SyntheticRoot))
		if err := p.member(name, c, rootID, 2); err != nil {
			return nil, 0, err
		}
		if c, err = p.next(); err != nil {
			return nil, 0, err
		}
	}
	if err := p.members(c, rootID, 2); err != nil {
		return nil, 0, err
	}
	root := p.arena.Node(SyntheticRoot)
	p.adopt(root, rootID, mark)
	return root, rootID, nil
}

// demote moves the root candidate's path id under a new synthetic
// root path id, which it returns. The candidate is re-keyed before
// the root is interned, so a later member of the same name finds the
// candidate's id, and {"document": {...}, "x": 1} gives the root and
// the candidate distinct ids.
func (p *parser) demote(cand int32) int32 {
	name := p.paths[cand].name
	delete(p.ids, pathKey(-1, name))
	root := p.child(-1, p.intern(SyntheticRoot))
	p.paths[cand].parent = root
	p.ids[pathKey(root, name)] = cand
	return root
}

// object parses an object, its '{' already read, through its '}',
// attaching its members to n.
func (p *parser) object(n *datatree.Node, path int32, depth int) error {
	mark := len(p.kids)
	c, err := p.next()
	if err != nil {
		return err
	}
	if c != '}' {
		name, c, err := p.memberStart(c)
		if err != nil {
			return err
		}
		if err := p.member(name, c, path, depth); err != nil {
			return err
		}
		if c, err = p.next(); err != nil {
			return err
		}
		if err := p.members(c, path, depth); err != nil {
			return err
		}
	}
	p.adopt(n, path, mark)
	return nil
}

// members parses the rest of an object after one of its members, c
// being the token that follows that member: a ',' before each further
// member, then the closing '}'.
func (p *parser) members(c byte, path int32, depth int) error {
	for c != '}' {
		if c != ',' {
			return p.unexpected(c, "',' or '}' after an object member")
		}
		var err error
		if c, err = p.next(); err != nil {
			return err
		}
		var name int32
		if name, c, err = p.memberStart(c); err != nil {
			return err
		}
		if err := p.member(name, c, path, depth); err != nil {
			return err
		}
		if c, err = p.next(); err != nil {
			return err
		}
	}
	return nil
}

// memberStart reads an object member up to its value, c being the
// member's first token: it validates and interns the name, reads the
// ':' and returns the name's index and the first token of the value.
func (p *parser) memberStart(c byte) (int32, byte, error) {
	if c != tokString {
		return 0, 0, p.unexpected(c, "a member name")
	}
	name, err := p.memberName()
	if err != nil {
		return 0, 0, err
	}
	if c, err = p.next(); err != nil {
		return 0, 0, err
	}
	if c != ':' {
		return 0, 0, p.unexpected(c, "':' after a member name")
	}
	c, err = p.next()
	return name, c, err
}

// member attaches one object member, the first token c of its value
// already read, to the object being parsed at path. An array value
// attaches one child per element — no wrapper node — and hints the
// path repeatable.
func (p *parser) member(name int32, c byte, path int32, depth int) error {
	child := p.child(path, name)
	if c == '[' {
		return p.array(name, child, depth)
	}
	return p.value(c, name, child, depth)
}

// array parses an array, its '[' already read, through its ']',
// attaching each element as a node labeled labels[name] at path, and
// hints the path repeatable. An empty array attaches nothing: the
// element is missing.
func (p *parser) array(name, path int32, depth int) error {
	p.paths[path].flags |= hinted
	c, err := p.next()
	if err != nil {
		return err
	}
	if c == ']' {
		return nil
	}
	for {
		if err := p.value(c, name, path, depth); err != nil {
			return err
		}
		if c, err = p.next(); err != nil {
			return err
		}
		if c == ']' {
			return nil
		}
		if c != ',' {
			return p.unexpected(c, "',' or ']' after an array element")
		}
		if c, err = p.next(); err != nil {
			return err
		}
	}
}

// value attaches one JSON value, its first token c already read, as a
// node labeled labels[name] at path.
func (p *parser) value(c byte, name, path int32, depth int) error {
	if err := p.checkDepth(depth); err != nil {
		return err
	}
	if err := p.addNodes(1); err != nil {
		return err
	}
	n := p.arena.Node(p.labels[name])
	p.kids = append(p.kids, n)
	switch c {
	case '{':
		return p.object(n, path, depth+1)
	case '[':
		// An array directly inside an array: JSON gives its members
		// no name, so wrap them in a record of "item"s.
		mark := len(p.kids)
		item := p.intern(ItemLabel)
		if err := p.array(item, p.child(path, item), depth+1); err != nil {
			return err
		}
		p.adopt(n, path, mark)
		return nil
	case tokString, tokNumber:
		n.Value = p.arena.Value(p.tok)
	case tokTrue:
		n.Value = "true"
	case tokFalse:
		n.Value = "false"
	case tokNull:
		return nil // present but null: a valueless leaf
	default:
		return p.unexpected(c, "a value")
	}
	n.HasValue = true
	p.paths[path].flags |= valued
	return nil
}

// adopt gives n the nodes pushed on p.kids since mark as its
// children, in one list carved from the arena, and pops them.
func (p *parser) adopt(n *datatree.Node, path int32, mark int) {
	kids := p.kids[mark:]
	if len(kids) == 0 {
		return
	}
	n.Children = p.arena.Children(kids)
	p.kids = p.kids[:mark]
	p.paths[path].flags |= record
}

// memberName validates the member name in p.tok as an element label
// and interns it, doing both once per distinct name.
func (p *parser) memberName() (int32, error) {
	if name, ok := p.names[string(p.tok)]; ok {
		return name, nil
	}
	label := string(p.tok)
	if err := validLabel(label); err != nil {
		return 0, err
	}
	return p.intern(label), nil
}

// intern returns the name index of a valid label, adding it on first
// use.
func (p *parser) intern(label string) int32 {
	if name, ok := p.names[label]; ok {
		return name
	}
	name := int32(len(p.labels))
	p.names[label] = name
	p.labels = append(p.labels, label)
	return name
}

// pathKey is the key of the element path labeled by name under the
// path id parent in parser.ids.
func pathKey(parent, name int32) uint64 {
	return uint64(uint32(parent))<<32 | uint64(uint32(name))
}

// child returns the path id of the element labeled labels[name] under
// the path id parent (-1 for a root path), interning it on first use.
func (p *parser) child(parent, name int32) int32 {
	k := pathKey(parent, name)
	if id, ok := p.ids[k]; ok {
		return id
	}
	id := int32(len(p.paths))
	p.ids[k] = id
	p.paths = append(p.paths, elemPath{parent: parent, name: name})
	return id
}

// path spells out the path id as a schema path.
func (p *parser) path(id int32) schema.Path {
	var steps []string
	for ; id >= 0; id = p.paths[id].parent {
		steps = append(steps, p.labels[p.paths[id].name])
	}
	slices.Reverse(steps)
	return schema.PathOf(steps...)
}

// checkDepth enforces ParseLimits.MaxDepth (the root node is depth 1,
// like the XML parser's element nesting).
func (p *parser) checkDepth(depth int) error {
	if p.lim.MaxDepth > 0 && depth > p.lim.MaxDepth {
		return fmt.Errorf("jsondoc: maximum nesting depth %d exceeded", p.lim.MaxDepth)
	}
	return nil
}

// addNodes counts freshly built nodes against ParseLimits.MaxNodes.
func (p *parser) addNodes(n int) error {
	p.nodes += n
	if p.lim.MaxNodes > 0 && p.nodes > p.lim.MaxNodes {
		return fmt.Errorf("jsondoc: maximum node count %d exceeded", p.lim.MaxNodes)
	}
	return nil
}

// validLabel rejects member names that cannot travel through the path
// notation (/a/b, ./a, ../a) or the schema-text notation (label:
// type, '#' comments) unambiguously.
func validLabel(label string) error {
	switch label {
	case "":
		return fmt.Errorf("jsondoc: empty member name cannot be an element label")
	case ".", "..":
		return fmt.Errorf("jsondoc: member name %q collides with the relative-path notation", label)
	}
	if label[0] == '#' {
		return fmt.Errorf("jsondoc: member name %q would read as a comment in the schema notation", label)
	}
	for _, r := range label {
		if unicode.IsSpace(r) || unicode.IsControl(r) || strings.ContainsRune("/:,{}", r) {
			return fmt.Errorf("jsondoc: member name %q contains %q, which the path and schema notations cannot represent", label, r)
		}
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
// repeats in rounds until no path is mixed, each round reading the
// path flags the tree had when it began; each round strictly moves
// values deeper along paths that already existed, so the depth of the
// original document bounds the rounds. The first round's flags are
// the scan's own, so a document without a mixed path is never walked.
func (p *parser) normalizeMixed(root *datatree.Node, rootID int32) error {
	for p.mixed() {
		if err := p.rewrite(root, rootID); err != nil {
			return err
		}
		for i := range p.paths {
			p.paths[i].flags &^= valued | record
		}
		p.flag(root, rootID)
	}
	return nil
}

// mixed reports whether some path is flagged both valued and record.
func (p *parser) mixed() bool {
	for _, e := range p.paths {
		if e.flags&(valued|record) == valued|record {
			return true
		}
	}
	return false
}

// rewrite moves the value of each node of the subtree at n (at path
// id) that sits on a mixed path into a new "@text" child. The new
// leaf is visited too, under the flags of the round.
func (p *parser) rewrite(n *datatree.Node, id int32) error {
	if n.HasValue && p.paths[id].flags&(valued|record) == valued|record {
		if err := p.addNodes(1); err != nil {
			return err
		}
		n.AddLeaf(datatree.TextLabel, n.Value)
		n.Value, n.HasValue = "", false
	}
	for _, c := range n.Children {
		if err := p.rewrite(c, p.child(id, p.intern(c.Label))); err != nil {
			return err
		}
	}
	return nil
}

// flag sets the valued and record flags of the paths of the subtree
// at n (at path id) from the tree as it stands.
func (p *parser) flag(n *datatree.Node, id int32) {
	if n.HasValue {
		p.paths[id].flags |= valued
	}
	if len(n.Children) > 0 {
		p.paths[id].flags |= record
	}
	for _, c := range n.Children {
		p.flag(c, p.child(id, p.intern(c.Label)))
	}
}

// next scans the next token, checking for cancellation every
// ctxCheckInterval tokens. At the end of the input it returns tokEOF.
func (p *parser) next() (byte, error) {
	p.tokens++
	if p.tokens%ctxCheckInterval == 0 && p.ctx != nil {
		if err := p.ctx.Err(); err != nil {
			return 0, fmt.Errorf("jsondoc: parse cancelled: %w", err)
		}
	}
	for {
		c, err := p.scan()
		if err != errShort {
			return c, err
		}
		p.fill()
	}
}

// fill discards the consumed part of the window, grows the window if
// the pending token fills it, and reads until the window is full or
// the input ends.
func (p *parser) fill() {
	if p.pos > 0 {
		p.off += p.pos
		p.end = copy(p.buf, p.buf[p.pos:p.end])
		p.pos = 0
	} else if p.end == len(p.buf) {
		grown := make([]byte, 2*len(p.buf))
		copy(grown, p.buf)
		p.buf = grown
	}
	for empty := 0; p.end < len(p.buf); {
		n, err := p.r.Read(p.buf[p.end:])
		p.end += n
		switch {
		case err == io.EOF:
			p.eof = true
			return
		case err != nil:
			p.eof, p.rerr = true, err
			return
		case n == 0:
			if empty++; empty >= maxEmptyReads {
				p.eof, p.rerr = true, io.ErrNoProgress
				return
			}
		}
	}
}

// scan scans one token starting at p.pos, after any white space, and
// unless it returns errShort advances p.pos past it.
func (p *parser) scan() (byte, error) {
	buf := p.buf[:p.end]
	i := p.pos
	for i < len(buf) && (buf[i] == ' ' || buf[i] == '\n' || buf[i] == '\t' || buf[i] == '\r') {
		i++
	}
	p.pos = i
	if i == len(buf) {
		switch {
		case !p.eof:
			return 0, errShort
		case p.rerr != nil:
			return 0, p.readError()
		}
		return tokEOF, nil
	}
	switch c := buf[i]; c {
	case '{', '}', '[', ']', ',', ':':
		p.pos++
		return c, nil
	case '"':
		return tokString, p.scanString()
	case 't':
		return tokTrue, p.scanLiteral("true")
	case 'f':
		return tokFalse, p.scanLiteral("false")
	case 'n':
		return tokNull, p.scanLiteral("null")
	default:
		if c == '-' || '0' <= c && c <= '9' {
			return tokNumber, p.scanNumber()
		}
		return 0, p.syntaxError(i, fmt.Sprintf("invalid character %q", c))
	}
}

// short is the result of a scan that needs a byte past the window: a
// refill when more input may come, else the error for input ending
// inside the token.
func (p *parser) short() error {
	switch {
	case !p.eof:
		return errShort
	case p.rerr != nil:
		return p.readError()
	}
	return p.syntaxError(p.end, "unexpected end of the document")
}

// readError wraps the reader's failure, so that callers can tell it
// from a malformed document (an oversized HTTP body, say).
func (p *parser) readError() error {
	return fmt.Errorf("jsondoc: reading the document: %w", p.rerr)
}

// syntaxError reports msg at window index i.
func (p *parser) syntaxError(i int, msg string) error {
	return fmt.Errorf("jsondoc: JSON syntax error at offset %d: %s", p.off+i, msg)
}

// unexpected reports the token c where the grammar wants something
// else.
func (p *parser) unexpected(c byte, want string) error {
	var got string
	switch c {
	case tokEOF:
		return p.syntaxError(p.pos, "unexpected end of the document, want "+want)
	case tokString:
		got = "a string"
	case tokNumber:
		got = "a number"
	case tokTrue, tokFalse, tokNull:
		got = "a literal"
	default:
		got = fmt.Sprintf("%q", c)
	}
	return p.syntaxError(p.pos, "got "+got+", want "+want)
}

// scanLiteral scans the literal lit (true, false or null) at p.pos.
func (p *parser) scanLiteral(lit string) error {
	i := p.pos
	n := min(len(lit), p.end-i)
	if string(p.buf[i:i+n]) != lit[:n] {
		return p.syntaxError(i, "invalid literal")
	}
	if n < len(lit) {
		return p.short()
	}
	p.pos = i + n
	return nil
}

// scanNumber scans the number at p.pos and leaves its spelling in
// p.tok. It reads the whole run of bytes a number can hold: when the
// run spells no number, the byte after the longest number in it could
// follow no value either.
func (p *parser) scanNumber() error {
	buf := p.buf[:p.end]
	i := p.pos
	j := i
	for j < len(buf) && numberByte(buf[j]) {
		j++
	}
	if j == len(buf) && !p.eof {
		return errShort
	}
	if !isNumber(buf[i:j]) {
		return p.syntaxError(j, fmt.Sprintf("invalid number %q", buf[i:j]))
	}
	p.tok, p.pos = buf[i:j], j
	return nil
}

// numberByte reports whether c can occur in a number.
func numberByte(c byte) bool {
	return '0' <= c && c <= '9' || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E'
}

// isNumber reports whether b spells a JSON number:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func isNumber(b []byte) bool {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i == len(b):
		return false
	case b[i] == '0':
		i++
	default:
		j := digits(b, i)
		if j == i {
			return false
		}
		i = j
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return false
		}
		i = j
	}
	return i == len(b)
}

// digits returns the end of the run of decimal digits starting at i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// scanString scans the string whose opening quote is at p.pos and
// leaves its decoded text in p.tok. Control characters are an error;
// escapes and bytes past ASCII are decoded only when the string holds
// some, the common case being a slice of the window.
func (p *parser) scanString() error {
	buf := p.buf[:p.end]
	start := p.pos + 1
	esc, wide := false, false
	i := start
	for {
		if i >= len(buf) {
			return p.short()
		}
		c := buf[i]
		if c == '"' {
			break
		}
		switch {
		case c == '\\':
			esc = true
			i++ // the escaped byte cannot close the string
		case c < 0x20:
			return p.syntaxError(i, fmt.Sprintf("control character %q in a string", c))
		case c >= utf8.RuneSelf:
			wide = true
		}
		i++
	}
	s := buf[start:i]
	p.pos = i + 1
	if !esc && (!wide || utf8.Valid(s)) {
		p.tok = s
		return nil
	}
	return p.unquote(s, start)
}

// unquote decodes the content s of a string starting at window index
// start as encoding/json does: escapes expand, a \uD8xx\uDCxx pair
// combines, and an unpaired surrogate escape or a byte of invalid
// UTF-8 becomes U+FFFD. It leaves the text in p.tok.
func (p *parser) unquote(s []byte, start int) error {
	d := p.dec[:0]
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == '\\':
			// s cannot end in the backslash: scanString skipped the
			// byte after it.
			switch e := s[i+1]; e {
			case '"', '\\', '/':
				d = append(d, e)
			case 'b':
				d = append(d, '\b')
			case 'f':
				d = append(d, '\f')
			case 'n':
				d = append(d, '\n')
			case 'r':
				d = append(d, '\r')
			case 't':
				d = append(d, '\t')
			case 'u':
				r := hex4(s[i+2:])
				if r < 0 {
					return p.syntaxError(start+i, "invalid \\u escape in a string")
				}
				i += 6
				if utf16.IsSurrogate(r) {
					r2 := rune(-1)
					if len(s)-i >= 6 && s[i] == '\\' && s[i+1] == 'u' {
						r2 = hex4(s[i+2:])
					}
					if r = utf16.DecodeRune(r, r2); r != unicode.ReplacementChar {
						i += 6
					}
				}
				d = utf8.AppendRune(d, r)
				continue
			default:
				return p.syntaxError(start+i, fmt.Sprintf("invalid escape %q in a string", e))
			}
			i += 2
		case c < utf8.RuneSelf:
			d = append(d, c)
			i++
		default:
			r, size := utf8.DecodeRune(s[i:])
			d = utf8.AppendRune(d, r)
			i += size
		}
	}
	p.dec, p.tok = d, d
	return nil
}

// hex4 returns the value of the four hex digits that start s, or -1.
func hex4(s []byte) rune {
	if len(s) < 4 {
		return -1
	}
	var r rune
	for _, c := range s[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

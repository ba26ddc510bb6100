package datatree

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// This file is the XML tokenizer behind ParseXML and
// StreamRootChildren. It accepts exactly the documents that
// encoding/xml's strict Decoder.Token accepts and reports the same
// errors, but it scans each token in place in a refillable byte
// window instead of pulling the input one byte at a time through an
// io.ByteReader and copying every token. The reference for each rule
// is rawToken, text, nsname and procInst in encoding/xml.

// windowSize is the initial size of the byte window. The window
// doubles only when a single token fills it, so a stream's memory is
// bounded by its largest token (encoding/xml buffers a whole text run
// too). It is a variable only so that tests can drive small inputs
// through the refill path.
var windowSize = 64 << 10

// maxEmptyReads is how many consecutive (0, nil) reads fill tolerates
// before failing with io.ErrNoProgress, as bufio.Reader does.
const maxEmptyReads = 100

// tokKind classifies the token next returned.
type tokKind uint8

const (
	tokOther tokKind = iota // comment, processing instruction or directive
	tokText                 // character data or CDATA, in scanner.text
	tokStart                // start tag: scanner.name and scanner.attrs
	tokEnd                  // end tag of the innermost open element
)

// errShort reports that a token runs past the end of the window: the
// caller refills the window and rescans the token from its start.
var errShort = errors.New("datatree: token runs past the window")

// qname is one distinct element, attribute or target name of a parse,
// interned so that labels are shared strings and end tags match by
// pointer.
type qname struct {
	raw    string // as written
	prefix string // part before a single inner ':', else ""
	local  string // part after a single inner ':', else raw: the label
	attr   string // "@" + local, set on first use as an attribute label
	colons bool   // raw holds two or more ':' (not an element or attribute name)
}

// attrLabel returns the data-model label of the name as an attribute.
func (q *qname) attrLabel() string {
	if q.attr == "" {
		q.attr = "@" + q.local
	}
	return q.attr
}

// attr is one attribute of a start tag.
type attr struct {
	name  *qname
	value string
}

// openElem is one element whose end tag is pending.
type openElem struct {
	name *qname
	ns   int // len(scanner.ns) before the element's declarations
}

// nsBinding is one in-scope xmlns:prefix declaration. Only whether the
// prefix is bound to the URI "xmlns" matters: encoding/xml translates
// such a prefix to the space "xmlns", and the data model drops
// attributes in that space.
type nsBinding struct {
	prefix string
	xmlns  bool
}

// scanner tokenizes an XML document from a refillable byte window.
type scanner struct {
	r    io.Reader
	buf  []byte // the window; buf[pos:end] is unread
	pos  int    // start of the next token
	end  int
	eof  bool  // r has no more bytes
	rerr error // r's error when it failed with something other than io.EOF
	line int   // line number of buf[0]

	// The current token.
	name      *qname // tokStart
	attrs     []attr // tokStart; xmlns declarations are dropped
	text      []byte // tokText; valid until the next call to next
	closeNext bool   // the start tag was self-closing: next reports its end

	dec   []byte            // decoded text of a token with references or '\r'
	names map[string]*qname // interned names, each validated once
	open  []openElem
	ns    []nsBinding
}

func newScanner(r io.Reader) *scanner {
	return &scanner{
		r:     r,
		buf:   make([]byte, windowSize),
		line:  1,
		names: make(map[string]*qname),
	}
}

// next scans the next token. At the end of a well-formed input it
// returns io.EOF; the end of input inside an element is a syntax
// error, as in encoding/xml.
func (s *scanner) next() (tokKind, error) {
	if s.closeNext {
		s.closeNext = false
		s.pop()
		return tokEnd, nil
	}
	for {
		kind, err := s.scan()
		if err != errShort {
			return kind, err
		}
		s.fill()
	}
}

// fill discards the consumed part of the window, grows the window if
// the pending token fills it, and reads until the window is full or
// the input ends.
func (s *scanner) fill() {
	if s.pos > 0 {
		s.line += bytes.Count(s.buf[:s.pos], []byte{'\n'})
		s.end = copy(s.buf, s.buf[s.pos:s.end])
		s.pos = 0
	} else if s.end == len(s.buf) {
		grown := make([]byte, 2*len(s.buf))
		copy(grown, s.buf)
		s.buf = grown
	}
	for empty := 0; s.end < len(s.buf); {
		n, err := s.r.Read(s.buf[s.end:])
		s.end += n
		switch {
		case err == io.EOF:
			s.eof = true
			return
		case err != nil:
			s.eof, s.rerr = true, err
			return
		case n == 0:
			if empty++; empty >= maxEmptyReads {
				s.eof, s.rerr = true, io.ErrNoProgress
				return
			}
		}
	}
}

// syntaxError reports msg at the line encoding/xml would report: the
// one holding buf[i-1], the last byte it consumed.
func (s *scanner) syntaxError(i int, msg string) error {
	return &xml.SyntaxError{Msg: msg, Line: s.line + bytes.Count(s.buf[:i], []byte{'\n'})}
}

// short is the result of a scan that needs a byte past the window: a
// refill when more input may come, else the error encoding/xml gives
// for input ending there.
func (s *scanner) short() error {
	if !s.eof {
		return errShort
	}
	return s.eofError("unexpected EOF")
}

// eofError is the error for input ending inside a token: the reader's
// own failure, or a syntax error with msg.
func (s *scanner) eofError(msg string) error {
	if s.rerr != nil {
		return s.rerr
	}
	return s.syntaxError(s.end, msg)
}

// scan scans one token starting at s.pos and, unless it returns
// errShort, advances s.pos past it.
func (s *scanner) scan() (tokKind, error) {
	i := s.pos
	if i == s.end {
		switch {
		case !s.eof:
			return tokOther, errShort
		case s.rerr != nil:
			return tokOther, s.rerr
		case len(s.open) > 0:
			return tokOther, s.syntaxError(s.end, "unexpected EOF")
		}
		return tokOther, io.EOF
	}
	if s.buf[i] != '<' {
		return tokText, s.scanText(i)
	}
	if i+1 == s.end {
		return tokOther, s.short()
	}
	switch s.buf[i+1] {
	case '/':
		return tokEnd, s.scanEnd(i + 2)
	case '?':
		return tokOther, s.scanProcInst(i + 2)
	case '!':
		return s.scanBang(i + 2)
	}
	return tokStart, s.scanStart(i + 1)
}

// nameByte marks the bytes a name is read over: ASCII name characters
// and every byte of a multi-byte character (validated later).
var nameByte = func() (t [256]bool) {
	for c := 0; c < 256; c++ {
		t[c] = c >= utf8.RuneSelf || 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' ||
			'0' <= c && c <= '9' || c == '_' || c == ':' || c == '.' || c == '-'
	}
	return t
}()

// nameEnd returns the end of the run of name bytes starting at i.
func (s *scanner) nameEnd(i int) (int, error) {
	for i < s.end && nameByte[s.buf[i]] {
		i++
	}
	if i == s.end {
		return i, s.short()
	}
	return i, nil
}

// spaceEnd returns the end of the run of XML white space starting at
// i; like nameEnd it needs the byte after the run.
func (s *scanner) spaceEnd(i int) (int, error) {
	for i < s.end {
		switch s.buf[i] {
		case ' ', '\r', '\n', '\t':
			i++
			continue
		}
		return i, nil
	}
	return i, s.short()
}

// readName reads the name at i and interns it. It returns nil, with a nil
// error, when no name starts at i; the caller reports that in context.
func (s *scanner) readName(i int) (*qname, int, error) {
	j, err := s.nameEnd(i)
	if err != nil || j == i {
		return nil, j, err
	}
	if q := s.names[string(s.buf[i:j])]; q != nil {
		return q, j, nil
	}
	raw := string(s.buf[i:j])
	if !isXMLName(raw) {
		return nil, j, s.syntaxError(j, "invalid XML name: "+raw)
	}
	q := &qname{raw: raw, local: raw}
	if strings.Count(raw, ":") > 1 {
		q.colons = true
	} else if p, l, ok := strings.Cut(raw, ":"); ok && p != "" && l != "" {
		q.prefix, q.local = p, l
	}
	s.names[raw] = q
	return q, j, nil
}

// isXMLName reports whether a run of name bytes is an XML name. An
// ASCII name must start with a letter, '_' or ':'; a name with a
// multi-byte character is checked by encoding/xml itself, as the
// target of a processing instruction.
func isXMLName(name string) bool {
	for i := 0; i < len(name); i++ {
		if name[i] >= utf8.RuneSelf {
			_, err := xml.NewDecoder(strings.NewReader("<?" + name + "?>")).Token()
			return err == nil
		}
	}
	c := name[0]
	return 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || c == '_' || c == ':'
}

// scanStart scans a start tag whose name begins at i.
func (s *scanner) scanStart(i int) error {
	q, j, err := s.readName(i)
	if err != nil {
		return err
	}
	if q == nil || q.colons {
		return s.syntaxError(j, "expected element name after <")
	}
	s.attrs = s.attrs[:0]
	empty := false
	for {
		if j, err = s.spaceEnd(j); err != nil {
			return err
		}
		if c := s.buf[j]; c == '>' {
			j++
			break
		} else if c == '/' {
			if j+1 == s.end {
				return s.short()
			}
			if s.buf[j+1] != '>' {
				return s.syntaxError(j+2, "expected /> in element")
			}
			j += 2
			empty = true
			break
		}
		an, k, err := s.readName(j)
		if err != nil {
			return err
		}
		if an == nil || an.colons {
			return s.syntaxError(k, "expected attribute name in element")
		}
		if k, err = s.spaceEnd(k); err != nil {
			return err
		}
		if s.buf[k] != '=' {
			return s.syntaxError(k+1, "attribute name without = in element")
		}
		if k, err = s.spaceEnd(k + 1); err != nil {
			return err
		}
		if c := s.buf[k]; c != '"' && c != '\'' {
			return s.syntaxError(k+1, "unquoted or missing attribute value in element")
		}
		if j, err = s.scanChars(k+1, s.buf[k]); err != nil {
			return err
		}
		s.attrs = append(s.attrs, attr{an, string(s.text)})
	}
	s.pos = j
	s.push(q)
	s.closeNext = empty
	return nil
}

// push opens the element named q, applying its namespace declarations
// and dropping the attributes the data model does not keep: xmlns
// declarations, and attributes whose prefix is bound to "xmlns".
func (s *scanner) push(q *qname) {
	s.name = q
	s.open = append(s.open, openElem{q, len(s.ns)})
	for _, a := range s.attrs {
		if a.name.prefix == "xmlns" {
			s.ns = append(s.ns, nsBinding{a.name.local, a.value == "xmlns"})
		}
	}
	kept := s.attrs[:0]
	for _, a := range s.attrs {
		if p := a.name.prefix; p == "xmlns" || a.name.local == "xmlns" ||
			p != "" && p != "xml" && s.boundToXMLNS(p) {
			continue
		}
		kept = append(kept, a)
	}
	s.attrs = kept
}

// boundToXMLNS reports whether the innermost declaration of prefix in
// scope binds it to "xmlns".
func (s *scanner) boundToXMLNS(prefix string) bool {
	for i := len(s.ns) - 1; i >= 0; i-- {
		if s.ns[i].prefix == prefix {
			return s.ns[i].xmlns
		}
	}
	return false
}

// pop closes the innermost open element, ending the scope of its
// namespace declarations.
func (s *scanner) pop() {
	top := s.open[len(s.open)-1]
	s.ns = s.ns[:top.ns]
	s.open = s.open[:len(s.open)-1]
}

// scanEnd scans an end tag whose name begins at i and matches it
// against the innermost open element.
func (s *scanner) scanEnd(i int) error {
	j, err := s.nameEnd(i)
	if err != nil {
		return err
	}
	var q *qname
	if n := len(s.open); n > 0 && string(s.buf[i:j]) == s.open[n-1].name.raw {
		q = s.open[n-1].name // no lookup, and valid: it opened the element
	} else if q, j, err = s.readName(i); err != nil {
		return err
	}
	if q == nil || q.colons {
		return s.syntaxError(j, "expected element name after </")
	}
	if j, err = s.spaceEnd(j); err != nil {
		return err
	}
	if s.buf[j] != '>' {
		return s.syntaxError(j+1, "invalid characters between </"+q.local+" and >")
	}
	j++
	if len(s.open) == 0 {
		return s.syntaxError(j, "unexpected end element </"+q.local+">")
	}
	if top := s.open[len(s.open)-1].name; top != q {
		if top.local != q.local {
			return s.syntaxError(j, "element <"+top.local+"> closed by </"+q.local+">")
		}
		space := q.prefix
		if space == "" {
			space = `""`
		}
		return s.syntaxError(j, "element <"+top.local+"> in space "+top.prefix+
			" closed by </"+q.local+"> in space "+space)
	}
	s.pos = j
	s.pop()
	return nil
}

// scanProcInst scans a processing instruction whose target begins at
// i, rejecting an XML declaration of a version other than 1.0 or of an
// encoding other than UTF-8.
func (s *scanner) scanProcInst(i int) error {
	q, j, err := s.readName(i)
	if err != nil {
		return err
	}
	if q == nil {
		return s.syntaxError(j, "expected target name after <?")
	}
	if j, err = s.spaceEnd(j); err != nil {
		return err
	}
	k := bytes.Index(s.buf[j:s.end], []byte("?>"))
	if k < 0 {
		return s.short()
	}
	if q.raw == "xml" {
		content := string(s.buf[j : j+k])
		if ver := procInstParam("version", content); ver != "" && ver != "1.0" {
			return fmt.Errorf("xml: unsupported version %q; only version 1.0 is supported", ver)
		}
		if enc := procInstParam("encoding", content); enc != "" && !strings.EqualFold(enc, "utf-8") {
			return fmt.Errorf("xml: encoding %q declared but Decoder.CharsetReader is nil", enc)
		}
	}
	s.pos = j + k + 2
	return nil
}

// procInstParam returns the quoted value of param="..." or param='...'
// in a processing instruction's content, or "", by encoding/xml's
// procInst rules.
func procInstParam(param, content string) string {
	param += "="
	i := 0
	var sep byte
	for i < len(content) {
		sub := content[i:]
		k := strings.Index(sub, param)
		if k < 0 || len(param)+k >= len(sub) {
			return ""
		}
		i += len(param) + k + 1
		if c := sub[len(param)+k]; c == '\'' || c == '"' {
			sep = c
			break
		}
	}
	if sep == 0 {
		return ""
	}
	j := strings.IndexByte(content[i:], sep)
	if j < 0 {
		return ""
	}
	return content[i : i+j]
}

// scanBang scans a comment, a CDATA section or a directive whose
// first byte after "<!" is at i.
func (s *scanner) scanBang(i int) (tokKind, error) {
	if i == s.end {
		return tokOther, s.short()
	}
	switch s.buf[i] {
	case '-':
		return tokOther, s.scanComment(i + 1)
	case '[':
		for k := 0; k < len("CDATA["); k++ {
			if i+1+k == s.end {
				return tokOther, s.short()
			}
			if s.buf[i+1+k] != "CDATA["[k] {
				return tokOther, s.syntaxError(i+2+k, "invalid <![ sequence")
			}
		}
		return tokText, s.scanCDATA(i + 1 + len("CDATA["))
	}
	return tokOther, s.scanDirective(i + 1)
}

// scanComment scans a comment whose second '-' is expected at i. The
// first "--" of the body must close the comment.
func (s *scanner) scanComment(i int) error {
	if i == s.end {
		return s.short()
	}
	if s.buf[i] != '-' {
		return s.syntaxError(i+1, "invalid sequence <!- not part of <!--")
	}
	k := bytes.Index(s.buf[i+1:s.end], []byte("--"))
	if k < 0 {
		return s.short()
	}
	j := i + 1 + k + 2
	if j == s.end {
		return s.short()
	}
	if s.buf[j] != '>' {
		return s.syntaxError(j+1, `invalid sequence "--" not allowed in comments`)
	}
	s.pos = j + 1
	return nil
}

// scanCDATA scans a CDATA section whose body begins at i. The body
// expands no references but has '\r' normalized and its characters
// checked like any text.
func (s *scanner) scanCDATA(i int) error {
	k := bytes.Index(s.buf[i:s.end], []byte("]]>"))
	if k < 0 {
		if !s.eof {
			return errShort
		}
		return s.eofError("unexpected EOF in CDATA section")
	}
	body := s.buf[i : i+k]
	j := i + k + 3
	if bytes.IndexByte(body, '\r') >= 0 {
		s.dec = normalizeCR(s.dec[:0], body)
		body = s.dec
	}
	if msg := checkChars(body); msg != "" {
		return s.syntaxError(j, msg)
	}
	s.text = body
	s.pos = j
	return nil
}

// normalizeCR appends src to dst with "\r\n" and lone '\r' turned
// into '\n'.
func normalizeCR(dst, src []byte) []byte {
	for i := 0; i < len(src); i++ {
		switch {
		case src[i] != '\r':
			dst = append(dst, src[i])
		case i+1 < len(src) && src[i+1] == '\n':
		default:
			dst = append(dst, '\n')
		}
	}
	return dst
}

// checkChars returns the encoding/xml message for the first byte
// sequence of text that is not valid UTF-8 or not an XML character,
// or "".
func checkChars(text []byte) string {
	for len(text) > 0 {
		r, size := utf8.DecodeRune(text)
		if r == utf8.RuneError && size == 1 {
			return "invalid UTF-8"
		}
		if !isXMLChar(r) {
			return fmt.Sprintf("illegal character code %U", r)
		}
		text = text[size:]
	}
	return ""
}

// isXMLChar reports whether r is in the Char production of XML 1.0.
func isXMLChar(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF || r >= 0xE000 && r <= 0xFFFD || r >= 0x10000 && r <= utf8.MaxRune
}

// scanDirective scans a directive such as <!DOCTYPE ...> whose second
// byte after "<!" is at i, by encoding/xml's rules: quoted '<' and '>'
// do not nest, and an embedded <!-- ... --> is skipped whole.
func (s *scanner) scanDirective(i int) error {
	var quote byte
	depth := 0
	for {
		if i == s.end {
			return s.short()
		}
		b := s.buf[i]
		i++
		if quote == 0 && b == '>' && depth == 0 {
			s.pos = i
			return nil
		}
		// A '<' that does not open a comment hands its next byte back
		// to this switch, without the closing check above.
	handle:
		switch {
		case b == quote:
			quote = 0
		case quote != 0:
		case b == '\'' || b == '"':
			quote = b
		case b == '>':
			depth--
		case b == '<':
			for k := 0; k < len("!--"); k++ {
				if i == s.end {
					return s.short()
				}
				b = s.buf[i]
				i++
				if b != "!--"[k] {
					depth++
					goto handle
				}
			}
			k := bytes.Index(s.buf[i:s.end], []byte("-->"))
			if k < 0 {
				return s.short()
			}
			i += k + 3
		}
	}
}

// Classes of text bytes for scanChars.
const (
	chPlain   = iota // copied as is
	chSpecial        // '<', '&', '>', quotes, '\r': markup, references or line ends
	chCtrl           // a control character XML does not allow
	chMulti          // the first byte of a multi-byte sequence, or a stray byte
)

var charClass = func() (t [256]uint8) {
	for c := 0; c < 256; c++ {
		switch {
		case c == '<' || c == '&' || c == '>' || c == '"' || c == '\'' || c == '\r':
			t[c] = chSpecial
		case c == '\t' || c == '\n':
			t[c] = chPlain
		case c < 0x20:
			t[c] = chCtrl
		case c >= utf8.RuneSelf:
			t[c] = chMulti
		}
	}
	return t
}()

// scanText scans the character data starting at i, up to the next
// '<' or the end of input.
func (s *scanner) scanText(i int) error {
	j, err := s.scanChars(i, 0)
	if err == nil {
		s.pos = j
	}
	return err
}

// scanChars scans character data starting at i: text up to the next
// '<' when quote is 0, else an attribute value up to the closing
// quote. It expands references, normalizes '\r', rejects "]]>" in
// text and '<' in values, and checks every character, in
// encoding/xml's order of errors: a markup error where it is read, a
// bad character only once the whole run has been read. The decoded
// run is left in s.text, pointing into the window when the run has no
// reference and no '\r'. It returns the end of the token.
func (s *scanner) scanChars(i int, quote byte) (int, error) {
	buf := s.buf[:s.end]
	start := i
	decoded := false // s.dec holds the run up to seg
	seg := i         // start of the bytes not yet copied to s.dec
	bad := ""        // the first character error
scan:
	for i < len(buf) {
		b := buf[i]
		switch charClass[b] {
		case chPlain:
			i++
			continue
		case chCtrl:
			if bad == "" {
				bad = fmt.Sprintf("illegal character code %U", rune(b))
			}
			i++
			continue
		case chMulti:
			// A sequence cut by the window's end reads as invalid
			// here, but the run then reaches the end and is rescanned.
			r, size := utf8.DecodeRune(buf[i:])
			if r == utf8.RuneError && size == 1 {
				if bad == "" {
					bad = "invalid UTF-8"
				}
			} else if bad == "" && !isXMLChar(r) {
				bad = fmt.Sprintf("illegal character code %U", r)
			}
			i += size
			continue
		}
		switch b {
		case '<':
			if quote == 0 {
				break scan
			}
			return i, s.syntaxError(i+1, "unescaped < inside quoted string")
		case '>':
			// A reference ends in ';', so a literal "]]>" never spans
			// one: encoding/xml's restart of the check after each
			// reference needs no bookkeeping here.
			if quote == 0 && i-2 >= start && buf[i-2] == ']' && buf[i-1] == ']' {
				return i, s.syntaxError(i+1, "unescaped ]]> not in CDATA section")
			}
			i++
		case '"', '\'':
			if b == quote {
				break scan
			}
			i++
		case '\r':
			s.dec = append(s.flush(decoded, seg, i), '\n')
			decoded = true
			if i++; i < len(buf) && buf[i] == '\n' {
				i++
			}
			seg = i
		case '&':
			r, j, err := s.reference(i)
			if err != nil {
				return j, err
			}
			if bad == "" && !isXMLChar(r) {
				bad = fmt.Sprintf("illegal character code %U", r)
			}
			s.dec = utf8.AppendRune(s.flush(decoded, seg, i), r)
			decoded = true
			i, seg = j, j
		}
	}
	runEnd := i
	if i == len(buf) {
		// The input ends inside the run: a refill, or the end of the
		// text; a value lacks its closing quote and the rest of its tag.
		if !s.eof {
			return i, errShort
		}
		if quote != 0 && bad == "" {
			return i, s.eofError("unexpected EOF")
		}
	} else if quote != 0 {
		i++ // the closing quote
	}
	if bad != "" {
		return i, s.syntaxError(i, bad)
	}
	if decoded {
		s.dec = append(s.dec, buf[seg:runEnd]...)
		s.text = s.dec
	} else {
		s.text = buf[start:runEnd]
	}
	return i, nil
}

// flush returns s.dec extended with the raw bytes buf[seg:i], starting
// it afresh when the run has not been decoded yet (then seg is the
// start of the run).
func (s *scanner) flush(decoded bool, seg, i int) []byte {
	if !decoded {
		s.dec = s.dec[:0]
	}
	return append(s.dec, s.buf[seg:i]...)
}

// reference decodes the character or entity reference starting at i
// (an '&') and returns the character and the end of the reference.
// Only the predefined entities and numeric references up to U+10FFFF
// (with a lower-case 'x' for hex) are accepted; a surrogate code
// becomes U+FFFD, as string(rune) makes it in encoding/xml.
func (s *scanner) reference(i int) (rune, int, error) {
	buf := s.buf[:s.end]
	j := i + 1
	if j == len(buf) {
		return 0, j, s.short()
	}
	if buf[j] != '#' {
		k, err := s.nameEnd(j)
		if err != nil {
			return 0, k, err
		}
		if buf[k] != ';' {
			return 0, k, s.syntaxError(k, "invalid character entity "+string(buf[i:k])+" (no semicolon)")
		}
		if c, ok := entities[string(buf[j:k])]; ok {
			return rune(c), k + 1, nil
		}
		return 0, k + 1, s.syntaxError(k+1, "invalid character entity "+string(buf[i:k+1]))
	}
	if j++; j == len(buf) {
		return 0, j, s.short()
	}
	base := rune(10)
	if buf[j] == 'x' {
		base = 16
		if j++; j == len(buf) {
			return 0, j, s.short()
		}
	}
	digits := j
	var v rune
	for ; j < len(buf); j++ {
		d := digitValue(buf[j])
		if d < 0 || d >= base {
			break
		}
		if v <= utf8.MaxRune {
			v = v*base + d
		}
	}
	if j == len(buf) {
		return 0, j, s.short()
	}
	if buf[j] != ';' {
		return 0, j, s.syntaxError(j, "invalid character entity "+string(buf[i:j])+" (no semicolon)")
	}
	j++
	if j-1 == digits || v > utf8.MaxRune {
		return 0, j, s.syntaxError(j, "invalid character entity "+string(buf[i:j]))
	}
	if !utf8.ValidRune(v) {
		v = utf8.RuneError
	}
	return v, j, nil
}

// entities are the predefined entities encoding/xml expands.
var entities = map[string]byte{"lt": '<', "gt": '>', "amp": '&', "apos": '\'', "quot": '"'}

// digitValue returns the value of a hex digit, or -1.
func digitValue(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c-'a') + 10
	case 'A' <= c && c <= 'F':
		return rune(c-'A') + 10
	}
	return -1
}

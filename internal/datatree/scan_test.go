package datatree

import (
	"context"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// contractSeeds cover each rule of the scanner's compatibility
// contract with encoding/xml, accepted and rejected side by side.
var contractSeeds = []string{
	// References.
	"<a>&#xD800;</a>", "<a>&#x110000;</a>", "<a>&#x10FFFF;</a>", "<a>&#0;</a>", "<a>&#xFFFE;</a>",
	"<a>&#65;&#x41;&#X41;</a>", "<a>&#;</a>", "<a>&#x;</a>", "<a>&#65</a>", "<a>&#0000000000000000000065;</a>",
	"<a>&lt;&gt;&amp;&apos;&quot;</a>", "<a>&nbsp;</a>", "<a>&;</a>", "<a>& b</a>", "<a>&amp</a>", "<a x='&#x9;&#xA;&#xD;'/>", "<a>&#x4a;&#x4A;&#xaB;</a>",
	// "]]>" in text, CDATA.
	"<a>x]]>y</a>", "<a>]]&gt;</a>", "<a>]]&amp;></a>", "<a x=']]>'/>", "x]]>y<a/>",
	"<a><![CDATA[x]]]></a>", "<a><![CDATA[<&>]]></a>", "<a><![CDATA[\r\n\r]]></a>", "<a><![CDATA[\x01]]></a>", "<a><![CDATA[\xff]]></a>",
	"<a><![CDATA[x]]></a>", "<a><![CDAT[x]]></a>", "<a><![CDATA[x",
	// Comments and processing instructions.
	"<a><!-- a -- b --></a>", "<a><!-- ok --></a>", "<a><!----></a>", "<a><!---></a>", "<a><!--->--></a>", "<a><!- x --></a>",
	"<?xml version='1.0' encoding='latin1'?><a/>", "<?xml version=\"1.1\"?><a/>", "<?xml version='1.0' encoding='UTF-8'?><a/>",
	"<?xml encoding='utf-8' version='1.0'?><a/>", "<?xml?><a/>", "<?xml version=1.1?><a/>", "<? x?><a/>", "<?1x?><a/>",
	"<?p a?b?><a/>", "<?p ?>\n<a/>", "<?é?><a/>",
	// Directives.
	"<!DOCTYPE a [<!ENTITY e 'x'> <!-- c > -->]><a/>", "<!DOCTYPE a [<!-- ' -->]><a/>", "<!DOCTYPE a '>'><a/>",
	"<!DOCTYPE a <b>><a/>", "<!DOCTYPE a <!x>><a/>", "<!>><a/>", "<!'>'><a/>", "<!DOCTYPE a",
	// Line ends and characters.
	"<a>x\r\ny\rz\n\r</a>", "<a b='x\r\ny'/>", "<a>\xff</a>", "<a>\xef\xbf\xbe</a>", "\xef\xbb\xbf<a>bom</a>",
	"<a>\xe2\x82</a>", "<a>\xe2\x82&amp;</a>", "<a>\x01</a>", "<a>\x7f</a>", "<a b='\x01'/>", "<a b='\xff",
	// Names.
	"<é/>", "<a é='1'/>", "<a\xff/>", "<a:b:c/>", "<a b:c:d='1'/>", "<p:a></q:a>", "<p:a></p:a>", "<a></p:a>",
	"<:a></:a>", "<a:></a:>", "<1a/>", "<-a/>", "<_a.b-c/>", "<a></b>", "</a>", "<a/></a>", "< a/>",
	"<a></a >", "<a></a x>", "<a></a", "<a><b/></a\n>",
	// Attributes.
	"<a b=1/>", "<a b='<'/>", "<a b/>", "<a b = 'x' c=\"y\"d='z'/>", "<a b='x'/ >", "<a b='x'", "<a b='\"'/>",
	`<r xmlns="u" xmlns:p="v" p:x="1" y="2"><a>1</a></r>`, `<r xmlns:p="xmlns" p:x="1"><a p:y="2"/></r>`,
	`<r p:x="1" xmlns:p="xmlns"/>`, `<r xmlns:p="xmlns"><a xmlns:p="v" p:y="2"/><b p:y="3"/></r>`,
	`<r xml:lang="en" q:xmlns="x"/>`, `<r xmlns:q="xmlns" p:x="1"/>`,
	// Structure and text outside the root.
	"<a/>tail", "<a/>&bad;", "<a/><b/>", "<a/>\n<!-- c -->\n", "lead<a/>", "<a>t<b/>u</a>", "<a>  </a>",
	"<a><b>1</b>  x  <c/></a>", "<a>\u0085x\u00a0</a>",
	// Errors after several lines, which a small window has discarded.
	"<a>\n<b>\n</a>\n", "<a\n  x='1'\n>\r\n\r\n&bad;</a>", "<a>\n\n\xff\n</a>", "<!--\n\n-->\n<a>\n</b\n>",
	// "]]>" split by references.
	"<a>]]&#62;</a>", "<a>]&#93;></a>", "<a>&#93;]></a>", "<a>]]&amp;]]></a>", "<a><![CDATA[x]]>></a>",
}

// tightLimits makes the limit checks fire on small inputs.
var tightLimits = ParseLimits{MaxDepth: 3, MaxNodes: 12}

// testReaders deliver an input whole, one byte per read, in halves,
// and whole but followed by a read error.
var testReaders = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"whole", func(r io.Reader) io.Reader { return r }},
	{"one-byte", iotest.OneByteReader},
	{"half", iotest.HalfReader},
	{"failing", func(r io.Reader) io.Reader { return io.MultiReader(r, iotest.ErrReader(errors.New("read failed"))) }},
}

// checkMatchesOracle asserts that ParseXMLContext accepts input
// exactly when the encoding/xml oracle does, with the same error
// message when it rejects and the same tree when it accepts. It checks
// under default and tight limits, for every test reader, and with the
// default window as well as a 4-byte one that sends every token
// through the refill, rescan and growth path.
func checkMatchesOracle(t *testing.T, input string) {
	t.Helper()
	defer func(w int) { windowSize = w }(windowSize)
	for _, lim := range []ParseLimits{DefaultLimits(), tightLimits} {
		for _, rd := range testReaders {
			want, werr := parseXMLOracle(context.Background(), rd.wrap(strings.NewReader(input)), lim)
			for _, windowSize = range []int{64 << 10, 4} {
				got, err := ParseXMLContext(context.Background(), rd.wrap(strings.NewReader(input)), lim)
				if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
					t.Fatalf("%s reads, %d-byte window, limits %+v: parser error %v, oracle error %v\ninput: %q",
						rd.name, windowSize, lim, err, werr, input)
				}
				if err == nil && got.String() != want.String() {
					t.Fatalf("%s reads, %d-byte window, limits %+v: trees differ\ninput: %q\nparser:\n%s\noracle:\n%s",
						rd.name, windowSize, lim, input, got, want)
				}
			}
		}
	}
}

func TestParseMatchesEncodingXMLSeeds(t *testing.T) {
	for _, s := range append(append([]string(nil), parseSeeds...), contractSeeds...) {
		checkMatchesOracle(t, s)
	}
}

// FuzzParseMatchesEncodingXML is the differential check of the
// byte-window scanner against the encoding/xml token loop it replaced.
func FuzzParseMatchesEncodingXML(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	for _, s := range contractSeeds {
		f.Add(s)
	}
	f.Fuzz(checkMatchesOracle)
}

// TestScannerLargeTokens feeds tokens several times the window size
// one byte per read, through the refill and window-growth path.
func TestScannerLargeTokens(t *testing.T) {
	big := strings.Repeat("0123456789abcdef", 200<<10/16)
	doc := `<r v="` + big + `"><t>` + big + `</t><!--` + big + `--><u>&amp;` + big + "\r\n</u></r>"
	tr, err := ParseXMLContext(context.Background(), iotest.OneByteReader(strings.NewReader(doc)), DefaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	if v := tr.Root.Child("@v"); v == nil || v.Value != big {
		t.Fatal("200 KiB attribute value lost")
	}
	if v := tr.Root.Child("t"); v == nil || v.Value != big {
		t.Fatal("200 KiB text run lost")
	}
	if v := tr.Root.Child("u"); v == nil || v.Value != "&"+big {
		t.Fatal("200 KiB decoded text run lost")
	}
	checkMatchesOracle(t, doc)
}

// zeroReader returns (0, nil) forever.
type zeroReader struct{}

func (zeroReader) Read([]byte) (int, error) { return 0, nil }

// TestScannerNoProgress pins the guard against a reader that never
// makes progress: the parse fails with io.ErrNoProgress, as a
// bufio.Reader under encoding/xml does, instead of spinning.
func TestScannerNoProgress(t *testing.T) {
	_, err := ParseXMLContext(context.Background(), io.MultiReader(strings.NewReader("<a>"), zeroReader{}), DefaultLimits())
	if !errors.Is(err, io.ErrNoProgress) {
		t.Fatalf("err = %v, want io.ErrNoProgress", err)
	}
	_, werr := parseXMLOracle(context.Background(), io.MultiReader(strings.NewReader("<a>"), zeroReader{}), DefaultLimits())
	if err.Error() != werr.Error() {
		t.Fatalf("parser error %v, oracle error %v", err, werr)
	}
}

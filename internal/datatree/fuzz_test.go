package datatree

import (
	"context"
	"strings"
	"testing"
)

// parseSeeds seeds the XML parser fuzz targets.
var parseSeeds = []string{
	"<a/>",
	"<a><b>1</b><b>2</b></a>",
	`<a x="1">t<b/>u</a>`,
	"<a><b></a>",
	"<?xml version=\"1.0\"?><r><x>&amp;</x></r>",
	"<a>" + strings.Repeat("<b>v</b>", 50) + "</a>",
	"not xml",
	"<a>\x00</a>",
}

// FuzzParseXML asserts that arbitrary input never panics the parser,
// and that anything it accepts survives a serialize→parse round trip
// under node-value equality.
func FuzzParseXML(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		tr, err := ParseXMLString(input)
		if err != nil {
			return
		}
		out := tr.XMLString()
		tr2, err := ParseXMLString(out)
		if err != nil {
			t.Fatalf("accepted input failed to round trip: %v\ninput: %q\nout: %q", err, input, out)
		}
		if !NodeValueEqual(tr.Root, tr2.Root) {
			t.Fatalf("round trip changed the tree\ninput: %q\nfirst:\n%s\nsecond:\n%s", input, tr, tr2)
		}
	})
}

// FuzzInferConform asserts that a schema inferred from any parseable
// document accepts that document.
func FuzzInferConform(f *testing.F) {
	f.Add("<a><b>1</b><b>x</b><c><d/></c></a>")
	f.Add("<r><x>1.5</x><x>2</x></r>")
	f.Add("<p>text <b>bold</b></p>")
	f.Fuzz(func(t *testing.T, input string) {
		tr, err := ParseXMLString(input)
		if err != nil {
			return
		}
		s, err := InferSchema(tr)
		if err != nil {
			t.Fatalf("inference failed on parseable document: %v\n%q", err, input)
		}
		if err := Conform(tr, s); err != nil {
			t.Fatalf("document rejected by its inferred schema: %v\n%q", err, input)
		}
	})
}

// xmlnsRootSeeds declare namespaces on the root. Declarations are not
// data nodes, so they must not count against MaxNodes on either path.
var xmlnsRootSeeds = []string{
	`<r xmlns="u" xmlns:p="v"><a>1</a></r>`,
	`<r xmlns="u" xmlns:a="1" xmlns:b="2" xmlns:c="3" xmlns:d="4" xmlns:e="5" xmlns:f="6" xmlns:g="7" xmlns:h="8" xmlns:i="9" xmlns:j="10" xmlns:k="11"><a>1</a></r>`,
}

// FuzzStreamMatchesParse asserts parser parity: under default and
// tight limits, StreamRootChildren accepts an input exactly when
// ParseXML does, reports the same root label, and delivers children
// node-value equal to the parsed root's children, in the same order.
func FuzzStreamMatchesParse(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	for _, s := range xmlnsRootSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		for _, lim := range []ParseLimits{DefaultLimits(), tightLimits} {
			checkStreamMatchesParse(t, input, lim)
		}
	})
}

func checkStreamMatchesParse(t *testing.T, input string, lim ParseLimits) {
	t.Helper()
	tr, perr := ParseXMLContext(context.Background(), strings.NewReader(input), lim)
	var got []*Node
	label, err := StreamRootChildrenContext(context.Background(), strings.NewReader(input), lim, func(c *Node) error {
		got = append(got, c)
		return nil
	})
	if (err == nil) != (perr == nil) {
		t.Fatalf("limits %+v: stream error %v, parse error %v\ninput: %q", lim, err, perr, input)
	}
	if err != nil {
		return
	}
	if label != tr.Root.Label {
		t.Fatalf("stream root %q, parsed root %q\ninput: %q", label, tr.Root.Label, input)
	}
	want := tr.Root.Children
	if len(got) != len(want) {
		t.Fatalf("stream delivered %d root children, parser built %d\ninput: %q", len(got), len(want), input)
	}
	var enc Encoder
	for i := range want {
		if !enc.NodeValueEqual(got[i], want[i]) {
			t.Fatalf("root child %d differs: stream %q, parsed %q\ninput: %q", i, got[i].Label, want[i].Label, input)
		}
	}
}

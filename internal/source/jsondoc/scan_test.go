package jsondoc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"discoverxfd/internal/datatree"
	"discoverxfd/internal/xmlgen"
)

// decoderSeeds cover each rule the scanner shares with the
// encoding/json token loop, accepted and rejected side by side.
var decoderSeeds = []string{
	// Roots and demotion.
	`{}`, `[]`, `[[]]`, `{"a": {}}`, `{"a": 1}`, `{"a": []}`, `{"a": [1]}`, `{"a": {"b": 1}, "c": 2}`,
	`{"a": {"xs": [5]}, "b": 1}`, `{"a": {"x": [1]}, "a": {"x": [2]}}`, `{"document": {"x": [1]}, "x": 1}`,
	`{"document": {"document": [1]}, "document": 2}`, `{"a": {"b": {"c": 1}}, "d": {"e": {"f": 1}}}`,
	`{"a": {}, "b": []}`, `{"a": 1, "b": {"c": {"d": 1}}}`, `[{"x": 1}, {"x": 2}]`, `[1, [2, [3]]]`,
	`{"a": {"b": {"c": 1}}, "d": 1}`, `{"a": {"x": 1}, "a": {"x": {"y": 1}}}`, `{"document": {"x": 1}, "document": {"x": {"y": 1}}}`,
	// Escapes, surrogates and UTF-8.
	`{"r": {"s": "a\"b\\c\/d\b\f\n\r\t"}}`, `{"r": {"s": "\u00e9\u0041\u00E9"}}`, `{"r": {"s": "\ud83d\ude00"}}`,
	`{"r": {"s": "\ud83d"}}`, `{"r": {"s": "\ude00\ud83d"}}`, `{"r": {"s": "\ud83d\ud83d\ude00"}}`, `{"r": {"s": "\ud83dx"}}`,
	`{"r": {"s": "\ud83d\u0041"}}`, `{"r": {"s": "\ud83d\uZZZZ"}}`, `{"r": {"s": "\u12"}}`, `{"r": {"s": "\x"}}`, `{"r": {"s": "\'"}}`,
	"{\"r\": {\"s\": \"\xff\xfe\"}}", "{\"r\": {\"s\": \"\xe2\x82\"}}", "{\"r\": {\"s\": \"\xe2\x82\xac\"}}", "{\"r\": {\"s\": \"a\x01b\"}}",
	"{\"r\": {\"s\": \"\x7f\"}}", "{\"r\": {\"\xff\": 1}}", `{"r": {"\u0061": 1, "a": 2}}`, `{"r": {"a\u0000": 1}}`, `{"r": {"\u002f": 1}}`,
	"{\"r\": {\"s\": \"\\u0000\"}}", `{"r": {"é": "ü"}}`, "\ufeff{}",
	// Numbers and literals.
	`{"r": {"n": [0, -0, 1.5, -1e10, 2E+3, 4e-2, 1.50, 12345678901234567890]}}`, `{"r": {"n": 01}}`, `{"r": {"n": 1.}}`,
	`{"r": {"n": .5}}`, `{"r": {"n": -}}`, `{"r": {"n": 1e}}`, `{"r": {"n": 1-2}}`, `{"r": {"n": +1}}`, `{"r": {"n": 1.5.3}}`,
	`{"r": {"b": [true, false, null]}}`, `{"r": {"b": tru}}`, `{"r": {"b": truex}}`, `{"r": {"b": nul}}`, `{"r": {"b": True}}`,
	// Set hints, duplicates, nulls and nodes.
	`{"r": {"a": 1, "a": 2}}`, `{"r": {"xs": [], "y": 1}}`, `{"r": {"m": [[1, 2], [3], []]}}`, `{"r": {"rows": [{"a": 1, "b": null}, {"a": 2}]}}`,
	`{"r": {"o": {}, "n": null}}`, `{"a": [{"b": []}]}`,
	// Mixed paths and the @text cascade.
	`{"r": {"xs": [1, {"a": 2}, "s"]}}`, `{"r": {"xs": [{"@text": {"x": 1}}, "scalar"]}}`,
	`{"r": {"xs": [{"@text": {"x": 1}}, {"@text": "v"}, "s"]}}`, `{"r": {"xs": [{"@text": [{"@text": {"y": 1}}, 2]}, 3]}}`,
	`{"r": {"@text": "mixed", "k": "v"}}`, `[1, [2]]`, `{"r": {"a": [1, [2, {"b": 3}]]}}`,
	// Labels.
	`{"": 1}`, `{"r": {".": 1}}`, `{"r": {"..": 1}}`, `{"r": {"a/b": 1}}`, `{"r": {"a:b": 1}}`, `{"r": {"a b": 1}}`,
	`{"r": {"#c": 1}}`, `{"r": {"a,b": 1}}`, `{"r": {"a{b": 1}}`, `{"r": {"a}b": 1}}`, `{"r": {"a\u2028b": 1}}`,
	// Grammar.
	``, ` `, `42`, `"x"`, `null`, `{"a": 1} {"b": 2}`, `{"a": 1}  `, `{"a": 1} x`, `{"a": 1}]`, `{"a": 1,}`, `[1,]`, `[,1]`,
	`{,}`, `{"a" 1}`, `{"a": 1 "b": 2}`, `[1 2]`, `{"a": [1}`, `{"a": {]}`, `{1: 2}`, `{"a": 1`, `[1`, `[`, `{"a"`, `{"a":`,
	`{"a": "x`, `{"a": "x\`, " \t\r\n{ \"a\" \n: \t[ 1 , 2 ] }\n", `{"a": /* c */ 1}`, `{'a': 1}`,
}

// decoderLimits are the limits the scanner and the oracle are compared
// under.
var decoderLimits = []datatree.ParseLimits{
	{}, datatree.DefaultLimits(), {MaxDepth: 3}, {MaxNodes: 5}, {MaxDepth: 64, MaxNodes: 4096},
}

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

// checkMatchesDecoder asserts that ParseContext accepts input exactly
// when the encoding/json oracle does, and that an accepted document
// gets the same tree and the same set hints. It checks under every
// limit of decoderLimits and every test reader, with the default
// window as well as a 4-byte one that sends every token through the
// refill, rescan and growth path.
func checkMatchesDecoder(t *testing.T, input string) {
	t.Helper()
	defer func(w int) { windowSize = w }(windowSize)
	for _, lim := range decoderLimits {
		for _, rd := range testReaders {
			want, werr := parseDecoder(context.Background(), rd.wrap(strings.NewReader(input)), lim)
			for _, windowSize = range []int{16 << 10, 4} {
				got, err := ParseContext(context.Background(), rd.wrap(strings.NewReader(input)), lim)
				if (err == nil) != (werr == nil) {
					t.Fatalf("%s reads, %d-byte window, limits %+v: scanner error %v, oracle error %v\ninput: %q",
						rd.name, windowSize, lim, err, werr, input)
				}
				if err != nil {
					if !strings.HasPrefix(err.Error(), "jsondoc: ") {
						t.Fatalf("error %q lacks the jsondoc: prefix\ninput: %q", err, input)
					}
					continue
				}
				if got.String() != want.String() {
					t.Fatalf("%s reads, %d-byte window, limits %+v: trees differ\ninput: %q\nscanner:\n%s\noracle:\n%s",
						rd.name, windowSize, lim, input, got, want)
				}
				if g, w := got.SetHints(), want.SetHints(); !slices.Equal(g, w) {
					t.Fatalf("%s reads, %d-byte window, limits %+v: set hints %v, oracle %v\ninput: %q",
						rd.name, windowSize, lim, g, w, input)
				}
			}
		}
	}
}

func TestParseMatchesDecoderSeeds(t *testing.T) {
	for _, s := range decoderSeeds {
		checkMatchesDecoder(t, s)
	}
}

// FuzzParseMatchesDecoder is the differential check of the byte
// scanner against the encoding/json token loop it replaced.
func FuzzParseMatchesDecoder(f *testing.F) {
	for _, s := range decoderSeeds {
		f.Add(s)
	}
	f.Fuzz(checkMatchesDecoder)
}

// TestParseMatchesDecoderOnGenerators compares the scanner with the
// oracle on the jsondoc.Write twin of every generator at default
// scale and of psd ×8 at generator seeds 1–4: the same tree and the
// same set hints.
func TestParseMatchesDecoderOnGenerators(t *testing.T) {
	for _, ds := range twinDatasets() {
		t.Run(ds.Name, func(t *testing.T) {
			t.Parallel()
			twin := writeTwin(t, ds)
			want, err := parseDecoder(context.Background(), bytes.NewReader(twin), datatree.DefaultLimits())
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			got, err := ParseContext(context.Background(), bytes.NewReader(twin), datatree.DefaultLimits())
			if err != nil {
				t.Fatalf("scanner: %v", err)
			}
			if got.String() != want.String() {
				t.Fatal("the scanner's tree differs from the oracle's")
			}
			if g, w := got.SetHints(), want.SetHints(); !slices.Equal(g, w) {
				t.Fatalf("set hints %v, oracle %v", g, w)
			}
		})
	}
}

// twinDatasets are every generator at default scale plus psd ×8 at
// generator seeds 1–4.
func twinDatasets() []xmlgen.Dataset {
	datasets := []xmlgen.Dataset{
		xmlgen.Warehouse(xmlgen.DefaultWarehouse()),
		xmlgen.DBLP(xmlgen.DefaultDBLP()),
		xmlgen.Auction(xmlgen.DefaultAuction()),
		xmlgen.Mondial(xmlgen.DefaultMondial()),
		xmlgen.Catalog(xmlgen.DefaultCatalog()),
		xmlgen.PSD(xmlgen.DefaultPSD()),
		xmlgen.Wide(xmlgen.DefaultWide(12)),
		xmlgen.WideForest(xmlgen.WideForestParams{Tables: 3, Table: xmlgen.DefaultWide(6)}),
	}
	for seed := int64(1); seed <= 4; seed++ {
		p := xmlgen.DefaultPSD()
		p.Entries *= 8
		p.Seed = seed
		ds := xmlgen.PSD(p)
		ds.Name = fmt.Sprintf("%s-x8-seed%d", ds.Name, seed)
		datasets = append(datasets, ds)
	}
	return datasets
}

// writeTwin spells a dataset as JSON with Write.
func writeTwin(tb testing.TB, ds xmlgen.Dataset) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, ds.Tree, ds.Schema); err != nil {
		tb.Fatalf("Write %s: %v", ds.Name, err)
	}
	return buf.Bytes()
}

// TestScannerLargeTokens feeds strings and numbers several times the
// window size one byte per read, through the refill and window-growth
// path.
func TestScannerLargeTokens(t *testing.T) {
	big := strings.Repeat("0123456789", 200<<10/10)
	doc := `{"r": {"s": "` + big + `", "e": "\u00e9` + big + `", "n": 1` + big + `}}`
	tr, err := ParseContext(context.Background(), iotest.OneByteReader(strings.NewReader(doc)), datatree.DefaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	if v := tr.Root.Child("s"); v == nil || v.Value != big {
		t.Fatal("200 KiB string lost")
	}
	if v := tr.Root.Child("e"); v == nil || v.Value != "é"+big {
		t.Fatal("200 KiB escaped string lost")
	}
	if v := tr.Root.Child("n"); v == nil || v.Value != "1"+big {
		t.Fatal("200 KiB number lost")
	}
	checkMatchesDecoder(t, doc)
}

// zeroReader returns (0, nil) forever.
type zeroReader struct{}

func (zeroReader) Read([]byte) (int, error) { return 0, nil }

// TestScannerReaderErrors pins that a reader's failure reaches the
// caller wrapped, so errors.Is and errors.As see it (xfdd maps an
// oversized body to 413 that way), and that a reader that never makes
// progress fails with io.ErrNoProgress instead of spinning.
func TestScannerReaderErrors(t *testing.T) {
	failed := errors.New("read failed")
	for _, doc := range []string{`{"r": {"a": 1}}`, `{"r": {"a": "xy`, `{"r": {"a": 12`, `{"r": {"a": tr`, `{"r": `} {
		_, err := ParseContext(context.Background(), io.MultiReader(strings.NewReader(doc), iotest.ErrReader(failed)), datatree.DefaultLimits())
		if !errors.Is(err, failed) {
			t.Errorf("%q then a failing read: err = %v, want it to wrap the read error", doc, err)
		}
	}
	_, err := ParseContext(context.Background(), io.MultiReader(strings.NewReader(`{"r": `), zeroReader{}), datatree.DefaultLimits())
	if !errors.Is(err, io.ErrNoProgress) {
		t.Fatalf("err = %v, want io.ErrNoProgress", err)
	}
	if _, err := ParseString(`{"r": {"a": 1}`); err == nil || !strings.HasPrefix(err.Error(), "jsondoc: ") {
		t.Fatalf("truncated document: err = %v, want a jsondoc: error", err)
	}
}

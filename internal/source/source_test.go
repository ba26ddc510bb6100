package source

import (
	"context"
	"errors"
	"io"
	"strings"
	"testing"

	"discoverxfd/internal/datatree"
)

func TestRegistry(t *testing.T) {
	if got := len(All()); got != 2 {
		t.Fatalf("registry has %d sources, want 2", got)
	}
	for _, format := range []string{"xml", "json", " XML ", "Json"} {
		src, err := ByFormat(format)
		if err != nil {
			t.Errorf("ByFormat(%q): %v", format, err)
			continue
		}
		if want := strings.ToLower(strings.TrimSpace(format)); src.Format() != want {
			t.Errorf("ByFormat(%q).Format() = %q", format, src.Format())
		}
	}
	if _, err := ByFormat("yaml"); err == nil {
		t.Error("ByFormat(yaml) succeeded")
	}
	if src, ok := ByExtension("a/b/doc.JSON"); !ok || src.Format() != "json" {
		t.Errorf("ByExtension(.JSON) = %v, %v", src, ok)
	}
	if _, ok := ByExtension("doc.txt"); ok {
		t.Error("ByExtension(.txt) succeeded")
	}
}

func TestDetect(t *testing.T) {
	cases := []struct {
		name, body, want string
	}{
		{"doc.xml", `{"not": "consulted"}`, "xml"}, // extension wins
		{"doc.json", `<a/>`, "json"},
		{"stdin", `  <warehouse></warehouse>`, "xml"},
		{"stdin", "\n\t{\"warehouse\": {}}", "json"},
		{"stdin", `[1, 2]`, "json"},
	}
	for _, c := range cases {
		src, r, err := Detect(c.name, strings.NewReader(c.body))
		if err != nil {
			t.Errorf("Detect(%q, %q): %v", c.name, c.body, err)
			continue
		}
		if src.Format() != c.want {
			t.Errorf("Detect(%q, %q) = %q, want %q", c.name, c.body, src.Format(), c.want)
		}
		// The returned reader must replay the sniffed prefix.
		got, _ := io.ReadAll(r)
		if string(got) != c.body {
			t.Errorf("Detect consumed input: got %q, want %q", got, c.body)
		}
	}
	if _, _, err := Detect("stdin", strings.NewReader("plain text")); !errors.Is(err, ErrUnknownFormat) {
		t.Errorf("Detect(plain text) = %v, want ErrUnknownFormat", err)
	}
	if _, _, err := Detect("stdin", strings.NewReader("")); !errors.Is(err, ErrUnknownFormat) {
		t.Errorf("Detect(empty) = %v, want ErrUnknownFormat", err)
	}
}

// TestSourceLoadParity pins that loading the same logical document
// through either registered source yields conformant trees under each
// other's obvious schema expectations (labels and values line up).
func TestSourceLoadParity(t *testing.T) {
	xmlSrc, _ := ByFormat("xml")
	jsonSrc, _ := ByFormat("json")
	lim := datatree.DefaultLimits()
	xt, err := xmlSrc.Load(context.Background(), strings.NewReader(`<r><a>1</a><a>2</a><b>x</b></r>`), lim)
	if err != nil {
		t.Fatal(err)
	}
	jt, err := jsonSrc.Load(context.Background(), strings.NewReader(`{"r": {"a": [1, 2], "b": "x"}}`), lim)
	if err != nil {
		t.Fatal(err)
	}
	if xt.String() != jt.String() {
		t.Fatalf("XML and JSON spellings of the same document diverge:\nxml:\n%s\njson:\n%s", xt, jt)
	}
}

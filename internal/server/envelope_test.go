package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// isEnvelopeProbe is the envelope test isEnvelope replaced: it
// unmarshals the whole body into a struct with one raw "document"
// field. It is the oracle isEnvelope must agree with on every body.
func isEnvelopeProbe(data []byte) bool {
	var probe struct {
		Document json.RawMessage `json:"document"`
	}
	if json.Unmarshal(data, &probe) != nil {
		return false
	}
	d := bytes.TrimSpace(probe.Document)
	return len(d) > 0 && d[0] == '"'
}

// envelopeSeeds cover the envelope rule: case variants and escapes of
// the name, names that only look like it, repeated members whose last
// value decides, nested "document" members, and invalid bodies.
var envelopeSeeds = []string{
	`{"document": "<a/>"}`, `{"Document": "x"}`, `{"DOCUMENT": "x"}`, `{"dOcUmEnT": "x"}`,
	`{"\u0064ocument": "x"}`, `{"\u0044OCUMENT": "x"}`, `{"documen\u0074": "x"}`, `{"docu\"ment": "x"}`,
	`{"document ": "x"}`, `{"documentx": "x"}`, `{"docum": "x"}`, `{"docum\u212aent": "x"}`, "{\"\u017fdocument\": \"x\"}", "{\"docum\u212aent\": \"x\"}",
	`{"document": "x", "document": null}`, `{"document": "x", "document": {}}`, `{"document": "x", "Document": [1]}`,
	`{"document": null, "document": "x"}`, `{"document": "x", "document": 2, "a": 1}`, `{"a": 1, "document": "x"}`,
	`{"document": 1}`, `{"document": true}`, `{"document": null}`, `{"document": []}`,
	`{"document": {"document": "x"}}`, `{"a": {"document": "x"}}`, `[{"document": "x"}]`, `{"a": ["document", "x"]}`,
	`{"a": [1, {"b": "}"}], "document": "x"}`, `{"a": "\"", "document": "x"}`, `{"a": "\\", "document": "x"}`,
	`{"document": "x"} `, "\n{\"document\" :\t\"x\" }\r\n", ` {"document" : "x" , "schema": "s", "format": "json"}`,
	`{"document": "x"} x`, `{"document": "x"}{}`, `{"document": "x",}`, `{"document": "x"`, `{"document": "\x"}`,
	`{"document": "x", "y": [}`, `{"document" "x"}`, `{document: "x"}`, `{'document': 'x'}`,
	"{\"document\": \"\xff\"}", "{\"\xffdocument\": \"x\"}", "{\"document\": \"a\x01\"}", "\ufeff{\"document\": \"x\"}",
	`{}`, ``, `null`, `"document"`, `{"a": 1}`, libraryJSONDoc,
}

// FuzzIsEnvelopeMatchesProbe requires isEnvelope to decide every body
// exactly as the json.Unmarshal probe it replaced.
func FuzzIsEnvelopeMatchesProbe(f *testing.F) {
	for _, s := range envelopeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if got, want := isEnvelope(body), isEnvelopeProbe(body); got != want {
			t.Fatalf("isEnvelope = %v, the Unmarshal probe says %v\nbody: %q", got, want, body)
		}
	})
}

// TestJSONBodyTooLarge pins 413 for a JSON body past MaxBodyBytes on
// both JSON paths: read whole under application/json, and scanned
// straight from the limited body by a DefaultFormat json server, where
// the 413 depends on the parser wrapping the reader's error.
func TestJSONBodyTooLarge(t *testing.T) {
	body := `{"library": {"shelf": [` + strings.Repeat(`{"room": "r1"}, `, 1000) + `{"room": "r2"}]}}`
	cases := []struct {
		name string
		cfg  Config
		hdr  map[string]string
	}{
		{"application/json", Config{MaxBodyBytes: 4 << 10}, map[string]string{"Content-Type": "application/json"}},
		{"default format json", Config{MaxBodyBytes: 4 << 10, DefaultFormat: "json"}, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := do(newTestServer(t, c.cfg), "POST", "/v1/discover", c.hdr, strings.NewReader(body))
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("status = %d, want 413 (body %s)", rec.Code, rec.Body)
			}
		})
	}
}

// TestJSONBodyBuffersReused posts JSON bodies of several sizes and
// shapes — raw documents, an envelope, one over the body cap — from two
// clients at once through one server, three rounds each. JSON bodies
// are read into pooled buffers, so a parsed document or an error that
// kept a reference to its body's bytes would be served corrupted once
// another request reused the buffer: every response must equal the
// body's response on a fresh server.
func TestJSONBodyBuffersReused(t *testing.T) {
	env, err := json.Marshal(envelope{Document: libraryJSONDoc, Format: "json"})
	if err != nil {
		t.Fatal(err)
	}
	shelves := func(n int) string {
		return `{"library": {"shelf": [` + strings.Repeat(`{"room": "r1", "book": {"isbn": "i1"}}, `, n) + `{"room": "r2"}]}}`
	}
	bodies := []string{libraryJSONDoc, string(env), shelves(300), shelves(3000), `{"library": [1,`}
	cfg := Config{MaxBodyBytes: 64 << 10}
	hdr := map[string]string{"Content-Type": "application/json"}
	type response struct {
		code int
		body string
	}
	serve := func(s *Server, body string) response {
		rec := do(s, "POST", "/v1/discover", hdr, strings.NewReader(body))
		return response{rec.Code, string(normalizeTimes(rec.Body.Bytes()))}
	}
	want := make([]response, len(bodies))
	for i, b := range bodies {
		want[i] = serve(newTestServer(t, cfg), b)
	}
	if want[3].code != http.StatusRequestEntityTooLarge || want[0].code != http.StatusOK {
		t.Fatalf("fixture statuses %d and %d, want 200 and 413", want[0].code, want[3].code)
	}
	s := newTestServer(t, cfg)
	var wg sync.WaitGroup
	for client := 0; client < 2; client++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for k := range bodies {
					i := (k + client*len(bodies)/2) % len(bodies)
					if got := serve(s, bodies[i]); got != want[i] {
						t.Errorf("client %d round %d body %d: got %d %.200s, want %d %.200s", client, round, i, got.code, got.body, want[i].code, want[i].body)
					}
				}
			}
		}(client)
	}
	wg.Wait()
}

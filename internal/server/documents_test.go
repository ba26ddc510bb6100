package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"discoverxfd"
)

// decodeDoc decodes a docInfo response body.
func decodeDoc(t *testing.T, body string) docInfo {
	t.Helper()
	var d docInfo
	if err := json.Unmarshal([]byte(body), &d); err != nil {
		t.Fatalf("decoding document info: %v\nbody: %s", err, body)
	}
	return d
}

// semantic decodes a Result JSON body and strips the stats block:
// warm (incremental) and cold runs legitimately differ in cache
// counters, everything else must match.
func semantic(t *testing.T, body []byte) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("decoding result: %v", err)
	}
	delete(m, "stats")
	return m
}

// TestDocumentLifecycle drives the resident-document surface end to
// end: create, discover, PATCH updates (with the returned insert key
// addressing the new tuple), incremental re-discovery matching a
// library-level replay of the same script, and delete.
func TestDocumentLifecycle(t *testing.T) {
	s := newTestServer(t, Config{})
	xml := libraryXML(12)

	rec := do(s, "POST", "/v1/documents", nil, strings.NewReader(xml))
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	info := decodeDoc(t, rec.Body.String())
	if info.ID == "" || !info.Updatable || info.Tuples == 0 {
		t.Fatalf("create returned %+v", info)
	}
	base := "/v1/documents/" + info.ID

	if rec = do(s, "POST", base+"/discover", nil, nil); rec.Code != http.StatusOK {
		t.Fatalf("warm-up discover: %d %s", rec.Code, rec.Body)
	}

	script := `[
		{"op": "insert", "class": "/library/shelf", "values": {"./room": "r99"}},
		{"op": "set", "class": "/library/shelf", "key": 2, "attr": "./room", "value": "r42"}
	]`
	rec = do(s, "PATCH", base, nil, strings.NewReader(script))
	if rec.Code != http.StatusOK {
		t.Fatalf("patch: %d %s", rec.Code, rec.Body)
	}
	var upd updateResult
	if err := json.Unmarshal(rec.Body.Bytes(), &upd); err != nil {
		t.Fatal(err)
	}
	if upd.Ops != 2 || len(upd.Keys) != 2 || len(upd.Relations) == 0 {
		t.Fatalf("patch result %+v", upd)
	}

	// The insert's returned key addresses the new tuple in a later
	// script.
	second := fmt.Sprintf(`[{"op": "delete", "class": "/library/shelf", "key": %d}]`, upd.Keys[0])
	if rec = do(s, "PATCH", base, nil, strings.NewReader(second)); rec.Code != http.StatusOK {
		t.Fatalf("second patch: %d %s", rec.Code, rec.Body)
	}

	rec = do(s, "POST", base+"/discover", nil, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("incremental discover: %d %s", rec.Code, rec.Body)
	}
	served := semantic(t, rec.Body.Bytes())

	// Replay the same scripts through the library against a fresh
	// build of the same document: the served incremental result must
	// match semantically.
	ctx := context.Background()
	var opts discoverxfd.Options
	eng := discoverxfd.NewEngine(&opts)
	doc, err := eng.LoadDocument(ctx, strings.NewReader(xml))
	if err != nil {
		t.Fatal(err)
	}
	h, err := eng.BuildHierarchy(ctx, doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []string{script, second} {
		ops, err := discoverxfd.ParseUpdates(strings.NewReader(sc))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.ApplyUpdate(h, ops); err != nil {
			t.Fatalf("replaying script: %v", err)
		}
	}
	res, err := eng.DiscoverHierarchy(ctx, h)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := discoverxfd.WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	want := semantic(t, []byte(buf.String()))
	if !reflect.DeepEqual(served, want) {
		t.Fatalf("served incremental result differs from library replay\nserved: %v\nwant:   %v", served, want)
	}

	info = decodeDoc(t, do(s, "GET", base, nil, nil).Body.String())
	if info.Updates != 2 || info.UpdateOps != 3 || info.Runs != 2 {
		t.Fatalf("document counters %+v, want updates=2 ops=3 runs=2", info)
	}
	st := s.Stats()
	if st.DocUpdates != 2 || st.DocUpdateOps != 3 || st.Documents != 1 {
		t.Fatalf("server stats %+v", st)
	}

	if rec = do(s, "DELETE", base, nil, nil); rec.Code != http.StatusOK {
		t.Fatalf("delete: %d %s", rec.Code, rec.Body)
	}
	if rec = do(s, "GET", base, nil, nil); rec.Code != http.StatusNotFound {
		t.Fatalf("get after delete: %d", rec.Code)
	}
	if st := s.Stats(); st.Documents != 0 || st.DocumentsDeleted != 1 {
		t.Fatalf("stats after delete %+v", st)
	}
}

// TestDocumentUpdateErrors pins the PATCH error contract: 404 for
// unknown documents, 400 for malformed scripts, 422 for scripts the
// hierarchy rejects — and a rejected script leaves the document
// serving discoveries.
func TestDocumentUpdateErrors(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := do(s, "POST", "/v1/documents", nil, strings.NewReader(libraryXML(4)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	base := "/v1/documents/" + decodeDoc(t, rec.Body.String()).ID

	cases := []struct {
		name   string
		target string
		body   string
		want   int
	}{
		{"unknown document", "/v1/documents/doc-999999", `[{"op":"delete","class":"/library/shelf","key":1}]`, http.StatusNotFound},
		{"malformed script", base, `not json`, http.StatusBadRequest},
		{"empty script", base, `[]`, http.StatusBadRequest},
		{"unknown key", base, `[{"op":"delete","class":"/library/shelf","key":999999}]`, http.StatusUnprocessableEntity},
		{"unknown class", base, `[{"op":"delete","class":"/library/nope","key":1}]`, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := do(s, "PATCH", tc.target, nil, strings.NewReader(tc.body))
			if rec.Code != tc.want {
				t.Fatalf("%s: %d %s, want %d", tc.name, rec.Code, rec.Body, tc.want)
			}
		})
	}
	if st := s.Stats(); st.DocUpdatesReject != 2 {
		t.Fatalf("rejected counter %d, want 2", st.DocUpdatesReject)
	}
	if rec := do(s, "POST", base+"/discover", nil, nil); rec.Code != http.StatusOK {
		t.Fatalf("discover after rejections: %d %s", rec.Code, rec.Body)
	}
}

// TestDocumentDiscoverRejectsLimits pins that a resident document's
// discover refuses limit parameters instead of silently running with
// the limits the document was created with, while ?timeout= and
// ?degrade= keep working. The same lattice cap on /v1/discover
// truncates the run, so it is not the parameter that is unknown.
func TestDocumentDiscoverRejectsLimits(t *testing.T) {
	s := newTestServer(t, Config{})
	xml := libraryXML(12)
	rec := do(s, "POST", "/v1/documents", nil, strings.NewReader(xml))
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	base := "/v1/documents/" + decodeDoc(t, rec.Body.String()).ID

	rec = do(s, "POST", "/v1/discover?max_lattice_level=1", nil, strings.NewReader(xml))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "lattice capped at level 1") {
		t.Fatalf("/v1/discover?max_lattice_level=1: %d %s, want a lattice-capped result", rec.Code, rec.Body)
	}

	cases := []struct {
		query string
		param string // named in the 400; "" means the run is served
	}{
		{"max_lattice_level=1", "max_lattice_level"},
		{"max_lattice_level=abc", "max_lattice_level"},
		{"max_tuples=5", "max_tuples"},
		{"max_nodes=3", "max_nodes"},
		{"max_depth=0", "max_depth"},
		{"timeout=30s&max_tuples=5", "max_tuples"},
		{"timeout=30s", ""},
		{"degrade=truncate", ""},
		{"", ""},
	}
	served := 0
	for _, c := range cases {
		rec := do(s, "POST", base+"/discover?"+c.query, nil, nil)
		if c.param == "" {
			if rec.Code != http.StatusOK {
				t.Errorf("?%s: %d %s, want 200", c.query, rec.Code, rec.Body)
			}
			served++
			continue
		}
		body := rec.Body.String()
		if rec.Code != http.StatusBadRequest || !strings.Contains(body, c.param) || !strings.Contains(body, "POST /v1/documents") {
			t.Errorf("?%s: %d %s, want 400 naming %s and POST /v1/documents", c.query, rec.Code, body, c.param)
		}
	}
	if info := decodeDoc(t, do(s, "GET", base, nil, nil).Body.String()); info.Runs != int64(served) {
		t.Errorf("document ran %d discoveries, want %d (rejected requests must not run)", info.Runs, served)
	}
}

// TestDocumentStoreCap pins the bounded store: creation past
// MaxDocuments fails with 409 until a document is deleted.
func TestDocumentStoreCap(t *testing.T) {
	s := newTestServer(t, Config{MaxDocuments: 1})
	rec := do(s, "POST", "/v1/documents", nil, strings.NewReader(libraryXML(2)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	id := decodeDoc(t, rec.Body.String()).ID
	if rec = do(s, "POST", "/v1/documents", nil, strings.NewReader(libraryXML(2))); rec.Code != http.StatusConflict {
		t.Fatalf("over-cap create: %d, want 409", rec.Code)
	}
	if rec = do(s, "DELETE", "/v1/documents/"+id, nil, nil); rec.Code != http.StatusOK {
		t.Fatalf("delete: %d", rec.Code)
	}
	if rec = do(s, "POST", "/v1/documents", nil, strings.NewReader(libraryXML(2))); rec.Code != http.StatusCreated {
		t.Fatalf("create after delete: %d %s", rec.Code, rec.Body)
	}
}

// TestDocumentDrainGate pins that mutating document endpoints close
// during drain while reads stay up.
func TestDocumentDrainGate(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := do(s, "POST", "/v1/documents", nil, strings.NewReader(libraryXML(2)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: %d", rec.Code)
	}
	base := "/v1/documents/" + decodeDoc(t, rec.Body.String()).ID
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rec = do(s, "POST", "/v1/documents", nil, strings.NewReader(libraryXML(2))); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("create during drain: %d, want 503", rec.Code)
	}
	if rec = do(s, "PATCH", base, nil, strings.NewReader(`[{"op":"delete","class":"/library/shelf","key":2}]`)); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("patch during drain: %d, want 503", rec.Code)
	}
	if rec = do(s, "GET", base, nil, nil); rec.Code != http.StatusOK {
		t.Fatalf("get during drain: %d, want 200", rec.Code)
	}
}

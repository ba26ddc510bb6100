package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"discoverxfd"
	"discoverxfd/internal/xmlgen"
)

// libraryXML renders a library with n shelves — a small corpus with
// enough repetition to carry FDs.
func libraryXML(n int) string {
	var b strings.Builder
	b.WriteString("<library>\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "<shelf><room>r%d</room>", i%10)
		fmt.Fprintf(&b, "<book><isbn>i%d</isbn><title>t%d</title><publisher>p%d</publisher></book>", i, i%20, i%5)
		fmt.Fprintf(&b, "<book><isbn>j%d</isbn><title>u%d</title><publisher>q%d</publisher></book>", i, i%20, i%5)
		b.WriteString("</shelf>\n")
	}
	b.WriteString("</library>")
	return b.String()
}

// newTestServer builds a Server whose lifecycle context dies with the
// test.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	return New(ctx, cfg)
}

// do runs one request through the server's handler in-process.
func do(s *Server, method, target string, hdr map[string]string, body io.Reader) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, body)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// volatileTimes matches the three wall-clock Stats fields — the only
// non-deterministic bytes in a rendered Result.
var volatileTimes = regexp.MustCompile(`("(?:intraTime|interTime|wallTime)"\s*:\s*)"[^"]*"`)

// normalizeTimes rewrites the wall-clock Stats fields to their zeroed
// form so served bytes compare against a library run with zeroTimes.
func normalizeTimes(b []byte) []byte {
	return volatileTimes.ReplaceAll(b, []byte(`$1"0s"`))
}

// libraryJSON runs the library path over doc/schema and renders the
// result with zeroed times — the byte-exact expectation for a served
// response.
func libraryJSON(t *testing.T, doc *discoverxfd.Document, sch *discoverxfd.Schema, opts discoverxfd.Options) []byte {
	t.Helper()
	opts.Trace = nil
	res, err := discoverxfd.NewEngine(&opts).Discover(context.Background(), doc, sch)
	if err != nil {
		t.Fatal(err)
	}
	res.Stats.IntraTime, res.Stats.InterTime, res.Stats.WallTime = 0, 0, 0
	var buf bytes.Buffer
	if err := discoverxfd.WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestHealthEndpoints(t *testing.T) {
	s := newTestServer(t, Config{})
	if rec := do(s, "GET", "/healthz", nil, nil); rec.Code != http.StatusOK {
		t.Errorf("healthz = %d, want 200", rec.Code)
	}
	if rec := do(s, "GET", "/readyz", nil, nil); rec.Code != http.StatusOK {
		t.Errorf("readyz = %d, want 200", rec.Code)
	}
	rec := do(s, "GET", "/v1/stats", nil, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats = %d, want 200", rec.Code)
	}
	var snap StatsSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("stats body: %v", err)
	}
	// /v1/stats is the one JSON counter endpoint: no expvar twin.
	if rec := do(s, "GET", "/debug/vars", nil, nil); rec.Code != http.StatusNotFound {
		t.Errorf("debug/vars = %d, want 404", rec.Code)
	}
}

// TestSyncDiscoverRawXML pins the sync path end to end: a raw XML body
// (schema inferred) is served 200 with exactly the bytes the library
// path renders.
func TestSyncDiscoverRawXML(t *testing.T) {
	s := newTestServer(t, Config{})
	xml := libraryXML(12)
	rec := do(s, "POST", "/v1/discover", nil, strings.NewReader(xml))
	if rec.Code != http.StatusOK {
		t.Fatalf("discover = %d, body %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}

	doc, err := discoverxfd.ParseDocument(xml)
	if err != nil {
		t.Fatal(err)
	}
	want := libraryJSON(t, doc, nil, discoverxfd.Options{})
	if got := normalizeTimes(rec.Body.Bytes()); !bytes.Equal(got, want) {
		t.Errorf("served result differs from library path\nserved: %s\nwant:   %s", got, want)
	}

	snap := s.Stats()
	if snap.Accepted != 1 || snap.Completed != 1 {
		t.Errorf("stats accepted=%d completed=%d, want 1/1", snap.Accepted, snap.Completed)
	}
}

// TestServedResultMatchesLibrary is the service-layer differential
// harness: over every golden corpus and option set, POSTing the
// serialized document (with its declared schema) must serve bytes
// identical to the library path, modulo the three wall-clock fields.
func TestServedResultMatchesLibrary(t *testing.T) {
	cases := []struct {
		slug string
		ds   xmlgen.Dataset
		opts discoverxfd.Options
	}{
		{"warehouse", xmlgen.Warehouse(xmlgen.DefaultWarehouse()), discoverxfd.Options{}},
		{"warehouse_approx", xmlgen.Warehouse(xmlgen.DefaultWarehouse()), discoverxfd.Options{ApproxError: 0.05}},
		{"warehouse_intra", xmlgen.Warehouse(xmlgen.DefaultWarehouse()), discoverxfd.Options{IntraOnly: true}},
		{"dblp", xmlgen.DBLP(xmlgen.DefaultDBLP()), discoverxfd.Options{}},
		{"auction", xmlgen.Auction(xmlgen.DefaultAuction()), discoverxfd.Options{}},
		{"mondial", xmlgen.Mondial(xmlgen.DefaultMondial()), discoverxfd.Options{}},
		{"mondial_nosets", xmlgen.Mondial(xmlgen.DefaultMondial()), discoverxfd.Options{NoSetElements: true}},
		{"catalog", xmlgen.Catalog(xmlgen.DefaultCatalog()), discoverxfd.Options{}},
		{"psd", xmlgen.PSD(xmlgen.DefaultPSD()), discoverxfd.Options{}},
	}
	for _, c := range cases {
		t.Run(c.slug, func(t *testing.T) {
			s := newTestServer(t, Config{Options: c.opts})

			var xml bytes.Buffer
			if err := c.ds.Tree.WriteXML(&xml); err != nil {
				t.Fatal(err)
			}
			body, err := json.Marshal(envelope{Document: xml.String(), Schema: c.ds.Schema.String()})
			if err != nil {
				t.Fatal(err)
			}
			rec := do(s, "POST", "/v1/discover",
				map[string]string{"Content-Type": "application/json"}, bytes.NewReader(body))
			if rec.Code != http.StatusOK {
				t.Fatalf("discover = %d, body %s", rec.Code, rec.Body)
			}

			// The library expectation parses the same serialized bytes the
			// server received, under the same declared schema.
			doc, err := discoverxfd.ParseDocument(xml.String())
			if err != nil {
				t.Fatal(err)
			}
			sch, err := discoverxfd.ParseSchema(c.ds.Schema.String())
			if err != nil {
				t.Fatal(err)
			}
			want := libraryJSON(t, doc, sch, c.opts)
			if got := normalizeTimes(rec.Body.Bytes()); !bytes.Equal(got, want) {
				t.Errorf("%s: served result differs from library path", c.ds.Name)
			}
		})
	}
}

// TestBadRequests pins the 4xx contract of the decode layer.
func TestBadRequests(t *testing.T) {
	s := newTestServer(t, Config{MaxBodyBytes: 4 << 10})
	xml := libraryXML(4)
	cases := []struct {
		name   string
		target string
		hdr    map[string]string
		body   string
		want   int
	}{
		{"bad degrade mode", "/v1/discover?degrade=explode", nil, xml, http.StatusBadRequest},
		{"bad timeout", "/v1/discover?timeout=soon", nil, xml, http.StatusBadRequest},
		{"negative timeout", "/v1/discover?timeout=-1s", nil, xml, http.StatusBadRequest},
		{"bad max_tuples", "/v1/discover?max_tuples=many", nil, xml, http.StatusBadRequest},
		{"negative max_tuples", "/v1/discover?max_tuples=-1", nil, xml, http.StatusBadRequest},
		{"negative max_lattice_level", "/v1/discover?max_lattice_level=-2", nil, xml, http.StatusBadRequest},
		{"malformed xml", "/v1/discover", nil, "<library><shelf></library>", http.StatusBadRequest},
		{"malformed envelope", "/v1/discover", map[string]string{"Content-Type": "application/json"},
			`{"document": "<a/>", "schema": 7}`, http.StatusBadRequest},
		{"unknown envelope field", "/v1/discover", map[string]string{"Content-Type": "application/json"},
			`{"document": "<a/>", "doc": 2}`, http.StatusBadRequest},
		{"empty envelope document", "/v1/discover", map[string]string{"Content-Type": "application/json"},
			`{"document": ""}`, http.StatusBadRequest},
		{"bad schema", "/v1/discover", map[string]string{"Content-Type": "application/json"},
			`{"document": "<a/>", "schema": "Rcd ((("}`, http.StatusBadRequest},
		{"bad envelope format", "/v1/discover", map[string]string{"Content-Type": "application/json"},
			`{"document": "<a/>", "format": "yaml"}`, http.StatusBadRequest},
		{"format document mismatch", "/v1/discover", map[string]string{"Content-Type": "application/json"},
			`{"document": "<a/>", "format": "json"}`, http.StatusBadRequest},
		{"malformed json document", "/v1/discover", map[string]string{"Content-Type": "application/json"},
			`{"library": {"shelf": [1,}}`, http.StatusBadRequest},
		{"json document bad label", "/v1/discover", map[string]string{"Content-Type": "application/json"},
			`{"library": {"a b": 1}}`, http.StatusBadRequest},
		{"oversized body", "/v1/discover", nil, libraryXML(200), http.StatusRequestEntityTooLarge},
		// The request's own limits bound the parse on every body path.
		{"max_nodes bounds the parse", "/v1/discover?max_nodes=3", nil, xml, http.StatusBadRequest},
		{"max_depth bounds the json parse", "/v1/discover?max_depth=1", map[string]string{"Content-Type": "application/json"},
			libraryJSONDoc, http.StatusBadRequest},
		{"max_nodes bounds the job parse", "/v1/jobs?max_nodes=3", nil, xml, http.StatusBadRequest},
		{"max_nodes bounds the document parse", "/v1/documents?max_nodes=3", nil, xml, http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := do(s, "POST", c.target, c.hdr, strings.NewReader(c.body))
			if rec.Code != c.want {
				t.Errorf("status = %d, want %d (body %s)", rec.Code, c.want, rec.Body)
			}
		})
	}
}

// libraryJSONDoc is the JSON spelling of a small library corpus.
const libraryJSONDoc = `{"library": {"shelf": [
	{"room": "r1", "book": [
		{"isbn": "i1", "title": "t1", "publisher": "p1"},
		{"isbn": "j1", "title": "t1", "publisher": "p1"}]},
	{"room": "r2", "book": [
		{"isbn": "i2", "title": "t2", "publisher": "p1"},
		{"isbn": "j2", "title": "t2", "publisher": "p1"}]}
]}}`

// TestJSONDocumentNegotiation pins the JSON document paths: a raw
// JSON body and a format=json envelope both serve exactly the bytes
// the library path renders for Engine.LoadJSON + inferred schema, and
// a DefaultFormat=json server treats undeclared bodies as JSON.
func TestJSONDocumentNegotiation(t *testing.T) {
	doc, err := discoverxfd.NewEngine(nil).LoadJSON(context.Background(), strings.NewReader(libraryJSONDoc))
	if err != nil {
		t.Fatal(err)
	}
	want := libraryJSON(t, doc, nil, discoverxfd.Options{})

	env, err := json.Marshal(envelope{Document: libraryJSONDoc, Format: "json"})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
		hdr  map[string]string
		body string
	}{
		{"raw json body", Config{}, map[string]string{"Content-Type": "application/json"}, libraryJSONDoc},
		{"format json envelope", Config{}, map[string]string{"Content-Type": "application/json"}, string(env)},
		{"default format json", Config{DefaultFormat: "json"}, nil, libraryJSONDoc},
		// The media type is case-insensitive, and its parameters and
		// the space around them do not matter (RFC 9110 §8.3.1).
		{"mixed-case content type", Config{}, map[string]string{"Content-Type": "Application/JSON"}, libraryJSONDoc},
		{"upper-case content type with charset", Config{}, map[string]string{"Content-Type": "APPLICATION/JSON;charset=UTF-8"}, libraryJSONDoc},
		{"space before parameters", Config{}, map[string]string{"Content-Type": "application/json ; charset=utf-8"}, libraryJSONDoc},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := newTestServer(t, c.cfg)
			rec := do(s, "POST", "/v1/discover", c.hdr, strings.NewReader(c.body))
			if rec.Code != http.StatusOK {
				t.Fatalf("discover = %d, body %s", rec.Code, rec.Body)
			}
			if got := normalizeTimes(rec.Body.Bytes()); !bytes.Equal(got, want) {
				t.Errorf("served result differs from library path\nserved: %s\nwant:   %s", got, want)
			}
		})
	}

	// A raw JSON document whose top level has a string-valued
	// "document" member is indistinguishable from an envelope and is
	// decoded as one — pin that edge so the precedence is deliberate.
	rec := do(newTestServer(t, Config{}), "POST", "/v1/discover",
		map[string]string{"Content-Type": "application/json"}, strings.NewReader(`{"document": "not xml"}`))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("envelope-shaped document = %d, want 400 (envelope precedence)", rec.Code)
	}
}

// TestLimitsTightenOnly pins the limit-negotiation rule: a request may
// narrow the server's budget but never widen it — asking for more (or
// for unlimited) is clamped to the server's bound, and the capped run
// is served 200 with the truncation marked.
func TestLimitsTightenOnly(t *testing.T) {
	s := newTestServer(t, Config{Limits: discoverxfd.Limits{MaxTuples: 10}})
	xml := libraryXML(40)

	for _, target := range []string{
		"/v1/discover",                  // server bound applies untouched
		"/v1/discover?max_tuples=0",     // "unlimited" is clamped down
		"/v1/discover?max_tuples=99999", // larger is clamped down
	} {
		rec := do(s, "POST", target, nil, strings.NewReader(xml))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s = %d, body %s", target, rec.Code, rec.Body)
		}
		if rec.Header().Get("X-Truncated") != "true" {
			t.Errorf("%s: X-Truncated missing — server cap did not hold", target)
		}
		var res struct {
			Stats struct {
				Truncated       bool   `json:"truncated"`
				TruncatedReason string `json:"truncatedReason"`
			} `json:"stats"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Stats.Truncated || !strings.Contains(res.Stats.TruncatedReason, "tuple budget") {
			t.Errorf("%s: truncated=%v reason=%q, want a tuple-budget truncation",
				target, res.Stats.Truncated, res.Stats.TruncatedReason)
		}
	}

	// Tightening below the server bound is honored as-is.
	rec := do(s, "POST", "/v1/discover?max_tuples=5", nil, strings.NewReader(xml))
	if rec.Code != http.StatusOK {
		t.Fatalf("tightened request = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "tuple budget of 5 exhausted") {
		t.Errorf("tightened cap not applied: %s", rec.Body)
	}
}

// sleepOnAdmit returns a fault hook that sleeps at the "admitted"
// point for the duration named by the X-Test-Sleep header — it burns
// the request's wall-clock budget after decode succeeds and before the
// run starts, making deadline-degradation deterministic.
func sleepOnAdmit() func(point string, h http.Header) {
	return func(point string, h http.Header) {
		if point != "admitted" {
			return
		}
		if v := h.Get("X-Test-Sleep"); v != "" {
			d, err := time.ParseDuration(v)
			if err == nil {
				time.Sleep(d)
			}
		}
	}
}

// TestDegradeTruncate pins graceful degradation: a run whose
// wall-clock budget is spent answers 504 by default, but
// ?degrade=truncate serves the partial Result as a 200 carrying
// Stats.Truncated — valid JSON, deadline reason, X-Truncated header.
func TestDegradeTruncate(t *testing.T) {
	s := newTestServer(t, Config{Fault: sleepOnAdmit()})
	xml := libraryXML(12)
	hdr := map[string]string{"X-Test-Sleep": "80ms"}

	rec := do(s, "POST", "/v1/discover?timeout=20ms", hdr, strings.NewReader(xml))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("no-degrade deadline = %d, want 504 (body %s)", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "degrade=truncate") {
		t.Errorf("504 body does not point at the degraded mode: %s", rec.Body)
	}

	rec = do(s, "POST", "/v1/discover?timeout=20ms&degrade=truncate", hdr, strings.NewReader(xml))
	if rec.Code != http.StatusOK {
		t.Fatalf("degrade=truncate deadline = %d, want 200 (body %s)", rec.Code, rec.Body)
	}
	if rec.Header().Get("X-Truncated") != "true" {
		t.Error("degraded response missing X-Truncated header")
	}
	var res struct {
		Stats struct {
			Truncated       bool   `json:"truncated"`
			TruncatedReason string `json:"truncatedReason"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatalf("degraded response is not valid JSON: %v\n%s", err, rec.Body)
	}
	if !res.Stats.Truncated || !strings.Contains(res.Stats.TruncatedReason, "deadline") {
		t.Errorf("truncated=%v reason=%q, want a deadline truncation",
			res.Stats.Truncated, res.Stats.TruncatedReason)
	}
	if s.Stats().DeadlineExceeded == 0 {
		t.Error("deadline counter did not move")
	}
}

// TestOverloadSheds pins admission control over HTTP: with every slot
// held and the queue full, new work is shed with 429 + Retry-After;
// a tenant at its quota is shed even though capacity remains.
func TestOverloadSheds(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: -1, TenantQuota: 1, RetryAfter: 7 * time.Second})
	xml := libraryXML(4)

	// Hold the only slot from the side so the HTTP layer is saturated.
	release, err := s.adm.Acquire(context.Background(), "hog")
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	rec := do(s, "POST", "/v1/discover", nil, strings.NewReader(xml))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overloaded discover = %d, want 429 (body %s)", rec.Code, rec.Body)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "7" {
		t.Errorf("Retry-After = %q, want %q", ra, "7")
	}

	// Tenant quota: the hog tenant is rejected even before queueing.
	s2 := newTestServer(t, Config{MaxConcurrent: 4, QueueDepth: 4, TenantQuota: 1})
	release2, err := s2.adm.Acquire(context.Background(), "hog")
	if err != nil {
		t.Fatal(err)
	}
	defer release2()
	rec = do(s2, "POST", "/v1/discover", map[string]string{"X-Tenant": "hog"}, strings.NewReader(xml))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota tenant = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("over-quota response missing Retry-After")
	}
	// A different tenant still gets through.
	rec = do(s2, "POST", "/v1/discover", map[string]string{"X-Tenant": "polite"}, strings.NewReader(xml))
	if rec.Code != http.StatusOK {
		t.Fatalf("other tenant = %d, want 200 (body %s)", rec.Code, rec.Body)
	}
	if s2.Stats().RejectedOverload != 1 {
		t.Errorf("rejectedOverload = %d, want 1", s2.Stats().RejectedOverload)
	}
}

// TestOverloadShedsJobs pins synchronous shedding on the async path:
// with the only slot held and no queue, POST /v1/jobs answers 429 with
// Retry-After, like the sync path, and registers no job that could
// later fail with the admission error.
func TestOverloadShedsJobs(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: -1, RetryAfter: 7 * time.Second})
	release, err := s.adm.Acquire(context.Background(), "hog")
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	rec := do(s, "POST", "/v1/jobs", nil, strings.NewReader(libraryXML(4)))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overloaded job submit = %d, want 429 (body %s)", rec.Code, rec.Body)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "7" {
		t.Errorf("Retry-After = %q, want %q", ra, "7")
	}
	if n := s.jobs.count(); n != 0 {
		t.Errorf("registered %d jobs, want 0", n)
	}
	if running, queued := s.adm.Load(); running != 1 || queued != 0 {
		t.Errorf("admission load = %d running, %d queued, want 1, 0", running, queued)
	}
}

// blockOnAdmit returns a fault hook that blocks at the "admitted"
// point until release is closed, signalling entry on started (once).
func blockOnAdmit(started, release chan struct{}) func(point string, h http.Header) {
	var once sync.Once
	return func(point string, h http.Header) {
		if point == "admitted" && h.Get("X-Test-Block") != "" {
			once.Do(func() { close(started) })
			<-release
		}
	}
}

// TestDrainCompletesInFlight pins the graceful half of shutdown: with
// a run in flight, Drain flips readiness to 503, sheds new work with
// 503 + Retry-After, lets the in-flight run finish and serve its 200,
// and then returns.
func TestDrainCompletesInFlight(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	s := newTestServer(t, Config{MaxConcurrent: 2, Fault: blockOnAdmit(started, release)})
	xml := libraryXML(8)

	inflight := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		inflight <- do(s, "POST", "/v1/discover", map[string]string{"X-Test-Block": "1"}, strings.NewReader(xml))
	}()
	<-started

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()

	// Drain is asynchronous from this goroutine's perspective; poll the
	// readiness flip.
	for i := 0; ; i++ {
		if rec := do(s, "GET", "/readyz", nil, nil); rec.Code == http.StatusServiceUnavailable {
			break
		}
		if i > 1000 {
			t.Fatal("readyz never flipped to 503 after Drain")
		}
		time.Sleep(time.Millisecond)
	}
	if rec := do(s, "GET", "/healthz", nil, nil); rec.Code != http.StatusOK {
		t.Errorf("healthz during drain = %d, want 200 (liveness stays up)", rec.Code)
	}
	rec := do(s, "POST", "/v1/discover", nil, strings.NewReader(xml))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("discover during drain = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("drain rejection missing Retry-After")
	}
	rec = do(s, "POST", "/v1/jobs", nil, strings.NewReader(xml))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("job submit during drain = %d, want 503", rec.Code)
	}

	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if rec := <-inflight; rec.Code != http.StatusOK {
		t.Errorf("in-flight run during drain = %d, want 200 (body %s)", rec.Code, rec.Body)
	}
	if s.Stats().RejectedDraining < 2 {
		t.Errorf("rejectedDraining = %d, want >= 2", s.Stats().RejectedDraining)
	}
	// Drain is idempotent.
	if err := s.Drain(context.Background()); err != nil {
		t.Errorf("second drain: %v", err)
	}
}

// TestDrainCutShort pins the other half: when the grace period ends
// first, Drain aborts the stragglers through the lifecycle context and
// reports the cut, instead of hanging.
func TestDrainCutShort(t *testing.T) {
	started := make(chan struct{})
	var once sync.Once
	s := newTestServer(t, Config{Fault: func(point string, h http.Header) {
		if point == "admitted" && h.Get("X-Test-Slow-Job") != "" {
			once.Do(func() { close(started) })
			time.Sleep(200 * time.Millisecond)
		}
	}})
	xml := libraryXML(8)

	rec := do(s, "POST", "/v1/jobs", map[string]string{"X-Test-Slow-Job": "1"}, strings.NewReader(xml))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d, body %s", rec.Code, rec.Body)
	}
	var v jobView
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	<-started

	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	err := s.Drain(dctx)
	if err == nil {
		t.Fatal("drain with expired grace returned nil, want the cut-short error")
	}
	if !strings.Contains(err.Error(), "cut short") {
		t.Errorf("drain error = %v", err)
	}
	// The straggler was aborted through the lifecycle context and
	// recorded as cancelled, not lost.
	rec = do(s, "GET", "/v1/jobs/"+v.ID, nil, nil)
	var after jobView
	if err := json.Unmarshal(rec.Body.Bytes(), &after); err != nil {
		t.Fatal(err)
	}
	if after.State != stateCancelled && after.State != stateFailed {
		t.Errorf("straggler state = %q, want cancelled or failed", after.State)
	}
}

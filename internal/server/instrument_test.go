package server

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"discoverxfd/internal/telemetry"
	"discoverxfd/internal/trace"
)

const testTraceparent = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"

// TestTraceparentPropagation pins the tentpole contract end to end: an
// inbound traceparent joins the caller's trace — the response echoes
// the trace id with a freshly minted span id (doubling as
// X-Request-Id), and every JSONL event of the request, the request
// span and the admitted run alike, carries the pair.
func TestTraceparentPropagation(t *testing.T) {
	var buf bytes.Buffer
	s := newTestServer(t, Config{Trace: trace.NewJSONL(&buf)})
	rec := do(s, "POST", "/v1/discover",
		map[string]string{"traceparent": testTraceparent}, strings.NewReader(libraryXML(6)))
	if rec.Code != http.StatusOK {
		t.Fatalf("discover = %d, body %s", rec.Code, rec.Body)
	}

	tp, err := trace.ParseTraceparent(rec.Header().Get("Traceparent"))
	if err != nil {
		t.Fatalf("response traceparent %q: %v", rec.Header().Get("Traceparent"), err)
	}
	if tp.TraceID != "0af7651916cd43dd8448eb211c80319c" {
		t.Errorf("trace id not propagated: %q", tp.TraceID)
	}
	if tp.ParentID == "b7ad6b7169203331" {
		t.Error("span id not re-minted for this hop")
	}
	if got := rec.Header().Get("X-Request-Id"); got != tp.ParentID {
		t.Errorf("X-Request-Id = %q, want the minted span id %q", got, tp.ParentID)
	}

	sum, err := trace.ValidateJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("emitted trace invalid: %v", err)
	}
	if sum.Requests != 1 || sum.Runs != 1 {
		t.Errorf("summary = %+v, want 1 request and 1 run", sum)
	}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev trace.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.TraceID != tp.TraceID || ev.RequestID != tp.ParentID {
			t.Errorf("event %s carries ids %q/%q, want %q/%q",
				ev.Kind, ev.TraceID, ev.RequestID, tp.TraceID, tp.ParentID)
		}
	}
}

// TestTraceparentMintedWhenAbsent pins the no-header and bad-header
// paths: the server starts a fresh, well-formed trace.
func TestTraceparentMintedWhenAbsent(t *testing.T) {
	s := newTestServer(t, Config{})
	for name, hdr := range map[string]map[string]string{
		"absent":    nil,
		"malformed": {"traceparent": "ff-bogus"},
	} {
		rec := do(s, "GET", "/healthz", hdr, nil)
		tp, err := trace.ParseTraceparent(rec.Header().Get("Traceparent"))
		if err != nil {
			t.Errorf("%s: response traceparent %q: %v", name, rec.Header().Get("Traceparent"), err)
			continue
		}
		if rec.Header().Get("X-Request-Id") != tp.ParentID {
			t.Errorf("%s: X-Request-Id disagrees with traceparent", name)
		}
	}
}

// scrape fetches /metrics and lint-checks the exposition.
func scrape(t *testing.T, s *Server) string {
	t.Helper()
	rec := do(s, "GET", "/metrics", nil, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	if _, err := telemetry.Lint(bytes.NewReader(rec.Body.Bytes())); err != nil {
		t.Errorf("exposition fails its own linter: %v", err)
	}
	return rec.Body.String()
}

// TestMetricsEndpoint pins the scrape surface: valid exposition
// carrying RED series for served routes, bridged engine counters, one
// observation per pipeline stage in the stage histogram, and runtime
// stats.
func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	if rec := do(s, "POST", "/v1/discover",
		map[string]string{"X-Tenant": "acme"}, strings.NewReader(libraryXML(6))); rec.Code != http.StatusOK {
		t.Fatalf("discover = %d, body %s", rec.Code, rec.Body)
	}
	got := scrape(t, s)
	wants := []string{
		`xfd_http_requests_total{route="/v1/discover",tenant="acme",code="2xx"} 1`,
		`xfd_http_request_duration_seconds_bucket{route="/v1/discover",le="+Inf"} 1`,
		`xfd_engine_runs_started_total 1`,
		`xfd_engine_runs_finished_total 1`,
		"xfd_queue_depth 0",
		"xfd_draining 0",
		"go_goroutines ",
		"go_gc_cycles_total ",
	}
	for _, stage := range trace.Stages {
		wants = append(wants, `xfd_run_stage_duration_seconds_bucket{stage="`+stage+`",le="+Inf"} 1`)
	}
	for _, want := range wants {
		if !strings.Contains(got, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// TestShedObservability pins the 429 path's observability: the shed
// response still carries trace headers, and the shed shows up by
// reason and tenant in both /metrics and /v1/stats.
func TestShedObservability(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	s := newTestServer(t, Config{MaxConcurrent: 4, TenantQuota: 1, Fault: blockOnAdmit(entered, release)})
	xml := libraryXML(6)

	var wg sync.WaitGroup
	wg.Add(1)
	//lint:governed test goroutine, joined via wg below.
	go func() {
		defer wg.Done()
		do(s, "POST", "/v1/discover",
			map[string]string{"X-Tenant": "hog", "X-Test-Block": "1"}, strings.NewReader(xml))
	}()
	<-entered

	rec := do(s, "POST", "/v1/discover",
		map[string]string{"X-Tenant": "hog"}, strings.NewReader(xml))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second request = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if _, err := trace.ParseTraceparent(rec.Header().Get("Traceparent")); err != nil {
		t.Errorf("429 traceparent: %v", err)
	}
	if rec.Header().Get("X-Request-Id") == "" {
		t.Error("429 without X-Request-Id")
	}

	got := scrape(t, s)
	for _, want := range []string{
		`xfd_requests_shed_total{reason="tenant_quota",tenant="hog"} 1`,
		`xfd_http_requests_total{route="/v1/discover",tenant="hog",code="4xx"} 1`,
		`xfd_tenant_running{tenant="hog"} 1`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("scrape missing %q", want)
		}
	}

	var snap StatsSnapshot
	if err := json.Unmarshal(do(s, "GET", "/v1/stats", nil, nil).Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	ten, ok := snap.Tenants["hog"]
	if !ok {
		t.Fatalf("stats missing tenant hog: %+v", snap.Tenants)
	}
	if ten.Running != 1 || ten.Sheds["tenant_quota"] != 1 {
		t.Errorf("tenant hog = %+v, want running 1 and one tenant_quota shed", ten)
	}

	close(release)
	wg.Wait()
}

// TestDrainVisibleInStats pins drain observability: with a run still
// in flight, /v1/stats reports draining (and the in-flight load) and
// readyz flips to 503, while the drain itself is still waiting.
func TestDrainVisibleInStats(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	s := newTestServer(t, Config{MaxConcurrent: 2, Fault: blockOnAdmit(entered, release)})

	var wg sync.WaitGroup
	wg.Add(1)
	//lint:governed test goroutine, joined via wg below.
	go func() {
		defer wg.Done()
		do(s, "POST", "/v1/discover",
			map[string]string{"X-Tenant": "t1", "X-Test-Block": "1"}, strings.NewReader(libraryXML(6)))
	}()
	<-entered

	drainDone := make(chan error, 1)
	//lint:governed test goroutine, joined via drainDone below.
	go func() { drainDone <- s.Drain(context.Background()) }()

	// Drain flips the flag synchronously before waiting; poll for it to
	// avoid racing the goroutine's first instruction.
	deadline := time.Now().Add(5 * time.Second)
	for !s.draining.Load() {
		if time.Now().After(deadline) {
			t.Fatal("drain flag never set")
		}
		time.Sleep(time.Millisecond)
	}

	var snap StatsSnapshot
	if err := json.Unmarshal(do(s, "GET", "/v1/stats", nil, nil).Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if !snap.Draining {
		t.Error("stats does not report draining with a run in flight")
	}
	if snap.Running != 1 {
		t.Errorf("stats running = %d, want the in-flight run", snap.Running)
	}
	if rec := do(s, "GET", "/readyz", nil, nil); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain = %d, want 503", rec.Code)
	}
	select {
	case <-drainDone:
		t.Fatal("drain finished with a run still blocked")
	default:
	}

	close(release)
	wg.Wait()
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Post-drain sheds are observable too: reason draining.
	if rec := do(s, "POST", "/v1/discover", nil, strings.NewReader("<x/>")); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain discover = %d, want 503", rec.Code)
	}
	if got := scrape(t, s); !strings.Contains(got, `xfd_requests_shed_total{reason="draining",tenant=""} 1`) {
		t.Error("scrape missing the draining shed counter")
	}
}

// TestAccessAndSlowRunLog pins the structured access log and the
// threshold-gated slow-request report, which carries the served run's
// stage timings and wall time on the sync route and on a resident
// document's discover route alike.
func TestAccessAndSlowRunLog(t *testing.T) {
	var logBuf bytes.Buffer
	var mu sync.Mutex
	lockedWriter := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return logBuf.Write(p)
	})
	s := newTestServer(t, Config{
		Log:     slog.New(slog.NewTextHandler(lockedWriter, nil)),
		SlowRun: time.Nanosecond, // everything is slow
	})
	if rec := do(s, "POST", "/v1/discover", nil, strings.NewReader(libraryXML(6))); rec.Code != http.StatusOK {
		t.Fatalf("discover = %d", rec.Code)
	}
	rec := do(s, "POST", "/v1/documents", nil, strings.NewReader(libraryXML(6)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("create document = %d", rec.Code)
	}
	if rec = do(s, "POST", "/v1/documents/"+decodeDoc(t, rec.Body.String()).ID+"/discover", nil, nil); rec.Code != http.StatusOK {
		t.Fatalf("document discover = %d", rec.Code)
	}
	mu.Lock()
	logged := logBuf.String()
	mu.Unlock()
	for _, want := range []string{
		"msg=request", "route=/v1/discover", "status=200", "trace_id=", "request_id=",
		`msg="slow request"`, "slow_run_threshold=",
	} {
		if !strings.Contains(logged, want) {
			t.Errorf("log missing %q:\n%s", want, logged)
		}
	}
	for _, route := range []string{"/v1/discover", "/v1/documents/{id}/discover"} {
		var line string
		for _, l := range strings.Split(logged, "\n") {
			if strings.Contains(l, `msg="slow request"`) && strings.Contains(l, " route="+route+" ") {
				line = l
			}
		}
		if line == "" {
			t.Errorf("no slow request line for %s:\n%s", route, logged)
			continue
		}
		for _, key := range append(slices.Clone(trace.Stages), "wall") {
			if !strings.Contains(line, " "+key+"=") {
				t.Errorf("%s slow request line missing %s=:\n%s", route, key, line)
			}
		}
	}
}

// TestSlowRunLeavesRunsUntraced pins that the slow-request report
// costs a run nothing: with SlowRun set and no trace backend,
// requestTracer hands the request's runs no tracer at all.
func TestSlowRunLeavesRunsUntraced(t *testing.T) {
	s := newTestServer(t, Config{SlowRun: time.Nanosecond})
	ran := false
	var tr trace.Tracer
	probe := s.instrument("/probe", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ran, tr = true, s.requestTracer(r)
	}))
	probe.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/probe", nil))
	if !ran {
		t.Fatal("middleware did not run the handler")
	}
	if tr != nil {
		t.Errorf("requestTracer = %T with no trace backend, want nil", tr)
	}
}

// writerFunc adapts a function to io.Writer.
type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"discoverxfd"
	"discoverxfd/internal/faultinject"
	"discoverxfd/internal/trace"
)

// TestHandlerPanicContained injects panics into the HTTP handler layer
// from many concurrent clients: every poisoned request answers 500,
// the server keeps serving clean requests, no goroutine leaks.
func TestHandlerPanicContained(t *testing.T) {
	defer faultinject.CheckGoroutines(t)()
	hook, fired := faultinject.HeaderFaultHook()
	s := newTestServer(t, Config{MaxConcurrent: 4, QueueDepth: 64, Fault: hook})
	xml := libraryXML(6)

	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan string, workers*4)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, point := range []string{"handler", "decode", "result"} {
				rec := do(s, "POST", "/v1/discover",
					map[string]string{faultinject.FaultHeader: point}, strings.NewReader(xml))
				if rec.Code != http.StatusInternalServerError {
					errs <- fmt.Sprintf("worker %d point %s: status %d, want 500", w, point, rec.Code)
				}
			}
			rec := do(s, "POST", "/v1/discover", nil, strings.NewReader(xml))
			if rec.Code != http.StatusOK {
				errs <- fmt.Sprintf("worker %d clean request: status %d, want 200", w, rec.Code)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if got := fired.Load(); got != workers*3 {
		t.Errorf("fault hook fired %d times, want %d", got, workers*3)
	}
	if got := s.Stats().PanicsContained; got != workers*3 {
		t.Errorf("panicsContained = %d, want %d", got, workers*3)
	}
	if rec := do(s, "GET", "/healthz", nil, nil); rec.Code != http.StatusOK {
		t.Errorf("healthz after panics = %d", rec.Code)
	}
}

// TestEngineStagePanicContained injects a panic into the middle of the
// discovery traversal (the RelationHook seam) from many concurrent
// clients: the run's panic barrier converts it to an error with the
// run span closed, the handler answers 500, the durable trace stays
// schema-valid with a run_end carrying the error, and clean runs
// interleaved with the poisoned ones stay byte-identical to the
// library path.
func TestEngineStagePanicContained(t *testing.T) {
	defer faultinject.CheckGoroutines(t)()
	hook, _ := faultinject.HeaderFaultHook() // non-nil Fault arms X-Fault-Relation
	var traceBuf bytes.Buffer
	var traceMu sync.Mutex
	s := newTestServer(t, Config{
		MaxConcurrent: 4,
		QueueDepth:    64,
		Fault:         hook,
		Trace:         lockedJSONL(&traceMu, &traceBuf),
	})
	xml := libraryXML(8)
	doc, err := discoverxfd.ParseDocument(xml)
	if err != nil {
		t.Fatal(err)
	}
	want := libraryJSON(t, doc, nil, discoverxfd.Options{})

	const workers = 12
	var wg sync.WaitGroup
	errs := make(chan string, workers*2)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rec := do(s, "POST", "/v1/discover",
				map[string]string{"X-Fault-Relation": "book"}, strings.NewReader(xml))
			if rec.Code != http.StatusInternalServerError {
				errs <- fmt.Sprintf("worker %d poisoned run: status %d, want 500", w, rec.Code)
			}
			if !strings.Contains(rec.Body.String(), "panic") {
				errs <- fmt.Sprintf("worker %d poisoned run: error does not name the panic: %s", w, rec.Body)
			}
			rec = do(s, "POST", "/v1/discover", nil, strings.NewReader(xml))
			if rec.Code != http.StatusOK {
				errs <- fmt.Sprintf("worker %d clean run: status %d, want 200", w, rec.Code)
			} else if !bytes.Equal(normalizeTimes(rec.Body.Bytes()), want) {
				errs <- fmt.Sprintf("worker %d clean run: result differs from library path", w)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	// Every span in the durable trace is closed and schema-valid —
	// poisoned runs included (they end with run_end carrying an error).
	traceMu.Lock()
	raw := append([]byte(nil), traceBuf.Bytes()...)
	traceMu.Unlock()
	sum, err := trace.ValidateJSONL(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("trace validation: %v", err)
	}
	if sum.Runs != workers*2 {
		t.Errorf("trace has %d runs, want %d", sum.Runs, workers*2)
	}
	failedRuns := 0
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		var ev struct {
			Kind string `json:"event"`
			Err  string `json:"error"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Kind == "run_end" && ev.Err != "" {
			failedRuns++
			if !strings.Contains(ev.Err, "panic") {
				t.Errorf("failed run_end error = %q, want the recovered panic", ev.Err)
			}
		}
	}
	if failedRuns != workers {
		t.Errorf("trace records %d failed runs, want %d", failedRuns, workers)
	}
	if s.Stats().Failed != workers {
		t.Errorf("failed counter = %d, want %d", s.Stats().Failed, workers)
	}
}

// TestResidentFaultHookPerRequest pins that an engine-stage fault
// armed by X-Fault-Relation belongs to the request that sent it, not
// to the resident document that request created: a discover sent with
// the header fails with 500, and one sent without it answers 200 with
// the library's result.
func TestResidentFaultHookPerRequest(t *testing.T) {
	hook, _ := faultinject.HeaderFaultHook() // non-nil Fault arms X-Fault-Relation
	s := newTestServer(t, Config{Fault: hook})
	xml := libraryXML(8)
	poison := map[string]string{"X-Fault-Relation": "book"}
	rec := do(s, "POST", "/v1/documents", poison, strings.NewReader(xml))
	if rec.Code != http.StatusCreated {
		t.Fatalf("create = %d, body %s", rec.Code, rec.Body)
	}
	base := "/v1/documents/" + decodeDoc(t, rec.Body.String()).ID

	if rec = do(s, "POST", base+"/discover", poison, nil); rec.Code != http.StatusInternalServerError {
		t.Errorf("discover with the fault header = %d, want 500", rec.Code)
	}
	rec = do(s, "POST", base+"/discover", nil, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("discover without the fault header = %d, want 200; body %s", rec.Code, rec.Body)
	}
	doc, err := discoverxfd.ParseDocument(xml)
	if err != nil {
		t.Fatal(err)
	}
	if want := libraryJSON(t, doc, nil, discoverxfd.Options{}); !bytes.Equal(normalizeTimes(rec.Body.Bytes()), want) {
		t.Errorf("resident discover differs from the library path\nserved: %s\nwant:   %s", rec.Body, want)
	}
}

// lockedJSONL wraps a JSONL tracer over a shared buffer; the mutex
// also lets the test read the buffer safely afterwards.
func lockedJSONL(mu *sync.Mutex, buf *bytes.Buffer) trace.Tracer {
	return trace.NewJSONL(&lockedWriter{mu: mu, w: buf})
}

type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// TestChaosLoad is the load test of the robustness contract: 32
// concurrent clients over a real listener mix clean requests, JSON
// envelopes, trickled uploads, mid-body disconnects, oversized bodies,
// handler panics, engine-stage panics, and async jobs — under -race.
// Afterwards the server must still be healthy, drain cleanly, leak no
// goroutines, and hold a schema-valid durable trace (no dropped
// spans); every 200 carries bytes identical to the library path.
func TestChaosLoad(t *testing.T) {
	defer faultinject.CheckGoroutines(t)()
	hook, _ := faultinject.HeaderFaultHook()
	var traceBuf bytes.Buffer
	var traceMu sync.Mutex
	s := newTestServer(t, Config{
		MaxConcurrent: 4,
		QueueDepth:    8,
		MaxBodyBytes:  64 << 10,
		RetryAfter:    time.Second,
		MaxJobs:       128,
		Fault:         hook,
		Trace:         lockedJSONL(&traceMu, &traceBuf),
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	xml := libraryXML(10)
	doc, err := discoverxfd.ParseDocument(xml)
	if err != nil {
		t.Fatal(err)
	}
	want := libraryJSON(t, doc, nil, discoverxfd.Options{})
	bigXML := libraryXML(1000) // one valid document well past MaxBodyBytes
	okOrShed := func(code int) bool { return code == http.StatusOK || code == http.StatusTooManyRequests }

	const (
		clients = 32
		rounds  = 4
	)
	var wg sync.WaitGroup
	errs := make(chan string, clients*rounds)
	report := func(format string, args ...any) {
		select {
		case errs <- fmt.Sprintf(format, args...):
		default:
		}
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Timeout: 30 * time.Second}
			defer client.CloseIdleConnections()
			for r := 0; r < rounds; r++ {
				scenario := (c + r) % 8
				switch scenario {
				case 0: // clean raw XML
					resp, err := client.Post(ts.URL+"/v1/discover", "text/xml", strings.NewReader(xml))
					if err != nil {
						report("client %d clean: %v", c, err)
						continue
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if !okOrShed(resp.StatusCode) {
						report("client %d clean: status %d", c, resp.StatusCode)
					} else if resp.StatusCode == http.StatusOK && !bytes.Equal(normalizeTimes(body), want) {
						report("client %d clean: served bytes differ from library path", c)
					}
				case 1: // JSON envelope
					env, _ := json.Marshal(envelope{Document: xml})
					resp, err := client.Post(ts.URL+"/v1/discover", "application/json", bytes.NewReader(env))
					if err != nil {
						report("client %d envelope: %v", c, err)
						continue
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if !okOrShed(resp.StatusCode) {
						report("client %d envelope: status %d", c, resp.StatusCode)
					} else if resp.StatusCode == http.StatusOK && !bytes.Equal(normalizeTimes(body), want) {
						report("client %d envelope: served bytes differ from library path", c)
					}
				case 2: // trickled upload (slow reader, chunked encoding)
					slow := &faultinject.SlowReader{R: strings.NewReader(xml), Chunk: 1024, Delay: 200 * time.Microsecond}
					req, _ := http.NewRequest("POST", ts.URL+"/v1/discover", slow)
					resp, err := client.Do(req)
					if err != nil {
						report("client %d slow: %v", c, err)
						continue
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if !okOrShed(resp.StatusCode) {
						report("client %d slow: status %d", c, resp.StatusCode)
					}
				case 3: // mid-body disconnect: ctx cancelled partway through the upload
					body, ctx := faultinject.CancelAfterBytes(context.Background(),
						&faultinject.SlowReader{R: strings.NewReader(xml), Chunk: 256, Delay: 100 * time.Microsecond},
						int64(len(xml)/2))
					req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/discover", body)
					resp, err := client.Do(req)
					if err == nil {
						// The race can let the request finish; either way the
						// server must survive it.
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				case 4: // oversized body → 413 (or shed)
					resp, err := client.Post(ts.URL+"/v1/discover", "text/xml", strings.NewReader(bigXML))
					if err != nil {
						// The server may reset the connection once the cap is
						// exceeded; that is an acceptable refusal too.
						continue
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusRequestEntityTooLarge && !okOrShed(resp.StatusCode) {
						report("client %d oversized: status %d", c, resp.StatusCode)
					}
				case 5: // handler panic
					req, _ := http.NewRequest("POST", ts.URL+"/v1/discover", strings.NewReader(xml))
					req.Header.Set(faultinject.FaultHeader, "handler")
					resp, err := client.Do(req)
					if err != nil {
						report("client %d handler panic: %v", c, err)
						continue
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusInternalServerError {
						report("client %d handler panic: status %d, want 500", c, resp.StatusCode)
					}
				case 6: // engine-stage panic
					req, _ := http.NewRequest("POST", ts.URL+"/v1/discover", strings.NewReader(xml))
					req.Header.Set("X-Fault-Relation", "book")
					resp, err := client.Do(req)
					if err != nil {
						report("client %d engine panic: %v", c, err)
						continue
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusInternalServerError && !okOrShed(resp.StatusCode) {
						report("client %d engine panic: status %d, want 500", c, resp.StatusCode)
					}
				case 7: // async job, polled to completion
					resp, err := client.Post(ts.URL+"/v1/jobs", "text/xml", strings.NewReader(xml))
					if err != nil {
						report("client %d job: %v", c, err)
						continue
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusAccepted {
						if resp.StatusCode != http.StatusTooManyRequests {
							report("client %d job submit: status %d", c, resp.StatusCode)
						}
						continue
					}
					var v jobView
					if err := json.Unmarshal(body, &v); err != nil {
						report("client %d job submit: %v", c, err)
						continue
					}
					deadline := time.Now().Add(20 * time.Second)
					for {
						sr, err := client.Get(ts.URL + "/v1/jobs/" + v.ID)
						if err != nil {
							report("client %d job poll: %v", c, err)
							break
						}
						var cur jobView
						err = json.NewDecoder(sr.Body).Decode(&cur)
						sr.Body.Close()
						if err != nil {
							report("client %d job poll: %v", c, err)
							break
						}
						if terminal(cur) {
							if cur.State != stateDone {
								report("client %d job: finished %q (%s)", c, cur.State, cur.Error)
							}
							break
						}
						if time.Now().After(deadline) {
							report("client %d job: stuck in %q", c, cur.State)
							break
						}
						time.Sleep(5 * time.Millisecond)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	// The service survived: healthy, drains cleanly, trace is whole.
	if rec := do(s, "GET", "/healthz", nil, nil); rec.Code != http.StatusOK {
		t.Fatalf("healthz after chaos = %d", rec.Code)
	}
	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("drain after chaos: %v", err)
	}
	// Drain waits for runs, not handlers: a client can read a whole
	// response before its handler emits request_end. Close blocks until
	// every outstanding request has finished, so the trace is whole.
	ts.Close()

	traceMu.Lock()
	raw := append([]byte(nil), traceBuf.Bytes()...)
	traceMu.Unlock()
	if len(bytes.TrimSpace(raw)) == 0 {
		t.Fatal("chaos run produced no trace")
	}
	sum, err := trace.ValidateJSONL(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("trace validation after chaos: %v", err)
	}
	if sum.Runs == 0 || sum.Events == 0 {
		t.Fatalf("trace summary %+v, want runs and events", sum)
	}

	snap := s.Stats()
	if snap.Completed == 0 {
		t.Error("no run completed under chaos")
	}
	t.Logf("chaos: %d runs traced, stats %+v", sum.Runs, snap)
}

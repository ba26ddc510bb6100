package discoverxfd_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"discoverxfd"
	"discoverxfd/internal/faultinject"
)

// bigLibraryXML renders a library with n shelves so faults and budgets
// have room to land mid-document.
func bigLibraryXML(n int) string {
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

// reportBody strips the run-statistics footer (whose timings vary run
// to run) so reports can be compared for the constraints they carry.
func reportBody(res *discoverxfd.Result) string {
	s := discoverxfd.ReportString(res)
	if i := strings.Index(s, "\nRun:"); i >= 0 {
		return s[:i]
	}
	return s
}

func librarySchema(t *testing.T, xml string) *discoverxfd.Schema {
	t.Helper()
	doc, err := discoverxfd.ParseDocument(xml)
	if err != nil {
		t.Fatal(err)
	}
	s, err := discoverxfd.InferSchema(doc)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDiscoverStreamReaderFault injects an I/O error mid-document:
// DiscoverStream must return the wrapped error, leak no goroutines,
// and leave no stale state — a clean rerun is identical to a run that
// never saw the fault.
func TestDiscoverStreamReaderFault(t *testing.T) {
	defer faultinject.CheckGoroutines(t)()
	xml := bigLibraryXML(40)
	s := librarySchema(t, xml)
	eng := discoverxfd.NewEngine(nil)
	ctx := context.Background()

	clean, err := eng.DiscoverStream(ctx, strings.NewReader(xml), s)
	if err != nil {
		t.Fatal(err)
	}

	faulty := &faultinject.Reader{R: strings.NewReader(xml), FailAfter: int64(len(xml) / 2)}
	res, err := eng.DiscoverStream(ctx, faulty, s)
	if err == nil {
		t.Fatal("mid-document read error was swallowed")
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want the injected error preserved through wrapping", err)
	}
	if res != nil {
		t.Fatal("failed stream returned a Result alongside the error")
	}

	rerun, err := eng.DiscoverStream(ctx, strings.NewReader(xml), s)
	if err != nil {
		t.Fatalf("rerun after fault: %v", err)
	}
	if got, want := reportBody(rerun), reportBody(clean); got != want {
		t.Errorf("rerun after a faulted run differs from a clean run\nclean:\n%s\nrerun:\n%s", want, got)
	}
}

// TestDiscoverStreamStalledReaderCancellable checks that a hung
// upstream does not hang discovery: cancelling the context unblocks
// the stalled read and surfaces context.Canceled.
func TestDiscoverStreamStalledReaderCancellable(t *testing.T) {
	defer faultinject.CheckGoroutines(t)()
	xml := bigLibraryXML(40)
	s := librarySchema(t, xml)

	ctx, cancel := context.WithCancel(context.Background())
	stalled := &faultinject.StallReader{R: strings.NewReader(xml), StallAfter: int64(len(xml) / 2), Ctx: ctx}
	done := make(chan error, 1)
	go func() {
		_, err := discoverxfd.NewEngine(nil).DiscoverStream(ctx, stalled, s)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("discovery hung on a stalled reader after cancellation")
	}
}

// TestDiscoverStreamCancelMidDocument cancels the context partway
// through ingestion (rather than before it) and expects an error, not
// a truncated result: cancellation is never graceful degradation.
func TestDiscoverStreamCancelMidDocument(t *testing.T) {
	xml := bigLibraryXML(40)
	s := librarySchema(t, xml)
	r, ctx := faultinject.CancelAfterBytes(context.Background(), strings.NewReader(xml), int64(len(xml)/2))
	res, err := discoverxfd.NewEngine(nil).DiscoverStream(ctx, r, s)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled stream returned a Result")
	}
}

// TestDiscoverDeadlineTruncatesPublicAPI drives the whole-call
// deadline budget through the public Options.Limits: an immediate
// deadline yields a partial Result, not an error.
func TestDiscoverDeadlineTruncatesPublicAPI(t *testing.T) {
	xml := bigLibraryXML(40)
	doc, err := discoverxfd.ParseDocument(xml)
	if err != nil {
		t.Fatal(err)
	}
	eng := discoverxfd.NewEngine(&discoverxfd.Options{Limits: discoverxfd.Limits{Deadline: time.Nanosecond}})
	res, err := eng.Discover(context.Background(), doc, nil)
	if err != nil {
		t.Fatalf("deadline must degrade gracefully, got error: %v", err)
	}
	if !res.Stats.Truncated {
		t.Fatal("immediate deadline did not mark the result truncated")
	}
	if res.Stats.TruncatedReason == "" {
		t.Error("Truncated set but TruncatedReason empty")
	}
	// The truncation must be visible in both renderings.
	if rep := discoverxfd.ReportString(res); !strings.Contains(rep, "PARTIAL RESULT") {
		t.Errorf("report does not flag the partial result:\n%s", rep)
	}
	var json strings.Builder
	if err := discoverxfd.WriteJSON(&json, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(json.String(), `"truncated": true`) {
		t.Errorf("JSON does not flag the partial result:\n%s", json.String())
	}
}

// TestDiscoverMaxTuplesTruncatesPublicAPI drives the tuple budget
// through the public API, for both the in-memory and streaming paths.
// A far deadline must not change what the truncated run finds.
func TestDiscoverMaxTuplesTruncatesPublicAPI(t *testing.T) {
	xml := bigLibraryXML(40)
	s := librarySchema(t, xml)
	doc, err := discoverxfd.ParseDocument(xml)
	if err != nil {
		t.Fatal(err)
	}
	var want string
	for _, deadline := range []time.Duration{0, time.Hour} {
		opts := &discoverxfd.Options{Limits: discoverxfd.Limits{MaxTuples: 30, Deadline: deadline}}
		res, err := discoverxfd.NewEngine(opts).Discover(context.Background(), doc, s)
		if err != nil {
			t.Fatalf("deadline %v: tuple budget must degrade gracefully, got error: %v", deadline, err)
		}
		if !res.Stats.Truncated || !strings.Contains(res.Stats.TruncatedReason, "tuple budget") {
			t.Fatalf("deadline %v: Truncated=%v reason=%q", deadline, res.Stats.Truncated, res.Stats.TruncatedReason)
		}

		sres, err := discoverxfd.NewEngine(opts).DiscoverStream(context.Background(), strings.NewReader(xml), s)
		if err != nil {
			t.Fatalf("deadline %v: streamed tuple budget must degrade gracefully, got error: %v", deadline, err)
		}
		if !sres.Stats.Truncated || !strings.Contains(sres.Stats.TruncatedReason, "tuple budget") {
			t.Fatalf("deadline %v: stream Truncated=%v reason=%q", deadline, sres.Stats.Truncated, sres.Stats.TruncatedReason)
		}

		got := fmt.Sprint(res.FDs, res.Keys)
		if deadline == 0 {
			if len(res.FDs)+len(res.Keys) == 0 {
				t.Fatal("truncated run found nothing to compare")
			}
			want = got
		} else if got != want {
			t.Errorf("deadline %v: FDs and keys\n%s\nwant, as without a deadline,\n%s", deadline, got, want)
		}
	}
}

// TestLoadDocumentContextParseLimits checks that parse limits are hard
// errors (not truncation) at the public boundary.
func TestLoadDocumentContextParseLimits(t *testing.T) {
	deep := strings.Repeat("<a>", 50) + strings.Repeat("</a>", 50)
	shallow := discoverxfd.NewEngine(&discoverxfd.Options{Limits: discoverxfd.Limits{MaxDepth: 10}})
	_, err := shallow.LoadDocument(context.Background(), strings.NewReader(deep))
	if err == nil || !strings.Contains(err.Error(), "datatree:") {
		t.Fatalf("err = %v, want a datatree depth error", err)
	}
	small := discoverxfd.NewEngine(&discoverxfd.Options{Limits: discoverxfd.Limits{MaxNodes: 20}})
	_, err = small.LoadDocument(context.Background(), strings.NewReader(bigLibraryXML(40)))
	if err == nil || !strings.Contains(err.Error(), "datatree:") {
		t.Fatalf("err = %v, want a datatree node-count error", err)
	}
}

// TestGenerousLimitsMatchPlainRun checks the public no-fault contract:
// a run under generous limits and a live context reports exactly what
// the plain run reports.
func TestGenerousLimitsMatchPlainRun(t *testing.T) {
	xml := bigLibraryXML(20)
	s := librarySchema(t, xml)
	doc, err := discoverxfd.ParseDocument(xml)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := discoverxfd.NewEngine(nil).Discover(context.Background(), doc, s)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	generous := discoverxfd.NewEngine(&discoverxfd.Options{
		Limits: discoverxfd.Limits{
			MaxDepth:  1 << 20,
			MaxNodes:  1 << 30,
			MaxTuples: 1 << 30,
			Deadline:  time.Hour,
		},
	})
	governed, err := generous.Discover(ctx, doc, s)
	if err != nil {
		t.Fatal(err)
	}
	if governed.Stats.Truncated {
		t.Fatal("generous limits marked the result truncated")
	}
	if got, want := reportBody(governed), reportBody(plain); got != want {
		t.Errorf("governed run differs from plain run\nplain:\n%s\ngoverned:\n%s", want, got)
	}
}

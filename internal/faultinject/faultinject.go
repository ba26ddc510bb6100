// Package faultinject is a test harness for the resource-governance
// contract of the discovery pipeline: readers that error, truncate,
// or stall mid-document; contexts that cancel after a prescribed
// amount of input; panic-injecting hooks for the traversal; and a
// goroutine-leak checker. Production code never imports it —
// it exists so every package's tests can inject the same faults the
// service will eventually meet in the wild.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"discoverxfd/internal/schema"
)

// ErrInjected is the error surfaced by a Reader whose fault fires.
// Wrapping layers must preserve it: errors.Is(err, ErrInjected) is
// how tests assert the failure propagated rather than being swallowed
// or replaced.
var ErrInjected = errors.New("faultinject: injected read error")

// Reader delivers the bytes of R until FailAfter bytes have been
// read, then returns Err (ErrInjected if nil) — an I/O fault in the
// middle of a document.
type Reader struct {
	R         io.Reader
	FailAfter int64
	Err       error

	n int64
}

func (r *Reader) Read(p []byte) (int, error) {
	if r.n >= r.FailAfter {
		return 0, r.err()
	}
	if max := r.FailAfter - r.n; int64(len(p)) > max {
		p = p[:max]
	}
	n, err := r.R.Read(p)
	r.n += int64(n)
	if err == io.EOF {
		return n, io.EOF
	}
	if err != nil {
		return n, err
	}
	if r.n >= r.FailAfter {
		return n, r.err()
	}
	return n, nil
}

func (r *Reader) err() error {
	if r.Err != nil {
		return r.Err
	}
	return ErrInjected
}

// Short delivers only the first n bytes of r, then a clean EOF — a
// connection dropped mid-document, indistinguishable from a
// truncated file.
func Short(r io.Reader, n int64) io.Reader {
	return io.LimitReader(r, n)
}

// SlowReader delivers the bytes of R at most Chunk bytes per Read,
// sleeping Delay before each one — a client trickling its upload over
// a slow link. Zero Chunk defaults to 1 byte; zero Delay just chops
// reads. The total stall a document can impose is
// ceil(len/Chunk)·Delay, so tests size the two to stay fast while
// still exercising the server's read path many times per request.
type SlowReader struct {
	R     io.Reader
	Chunk int
	Delay time.Duration
}

func (r *SlowReader) Read(p []byte) (int, error) {
	if r.Delay > 0 {
		time.Sleep(r.Delay)
	}
	chunk := r.Chunk
	if chunk <= 0 {
		chunk = 1
	}
	if len(p) > chunk {
		p = p[:chunk]
	}
	return r.R.Read(p)
}

// StallReader delivers the bytes of R until StallAfter bytes have
// been read, then blocks until the context is cancelled (returning
// the context's error) — a hung upstream. The context bound is what
// keeps tests using it from deadlocking: a stalled Read cannot be
// interrupted any other way.
type StallReader struct {
	R          io.Reader
	StallAfter int64
	Ctx        context.Context

	n int64
}

func (r *StallReader) Read(p []byte) (int, error) {
	if r.n >= r.StallAfter {
		<-r.Ctx.Done()
		return 0, fmt.Errorf("faultinject: stalled read aborted: %w", r.Ctx.Err())
	}
	if max := r.StallAfter - r.n; int64(len(p)) > max {
		p = p[:max]
	}
	n, err := r.R.Read(p)
	r.n += int64(n)
	return n, err
}

// CancelAfterBytes wraps r so that the returned context is cancelled
// once n bytes have passed through — "cancel after N tokens" for a
// token-sized choice of n. The bytes themselves are delivered
// unmodified; the consumer notices the cancellation at its next
// context check, which is exactly the latency the governance layer
// promises to bound.
func CancelAfterBytes(parent context.Context, r io.Reader, n int64) (io.Reader, context.Context) {
	ctx, cancel := context.WithCancel(parent)
	return &cancellingReader{r: r, remaining: n, cancel: cancel}, ctx
}

type cancellingReader struct {
	r         io.Reader
	remaining int64
	cancel    context.CancelFunc
	once      sync.Once
}

func (c *cancellingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.remaining -= int64(n)
	if c.remaining <= 0 {
		c.once.Do(c.cancel)
	}
	return n, err
}

// PanicHook returns a relation hook (core.Options.RelationHook) that
// panics when it sees a pivot path containing substr — a fault
// injected into the middle of the bottom-up traversal. The returned
// counter reports how often the hook fired.
func PanicHook(substr string) (hook func(pivot schema.Path), fired *atomic.Int32) {
	var count atomic.Int32
	return func(pivot schema.Path) {
		if strings.Contains(string(pivot), substr) {
			count.Add(1)
			panic(fmt.Sprintf("faultinject: injected panic at relation %s", pivot))
		}
	}, &count
}

// FaultHeader is the request header the server-layer fault hook
// reads: its value names the fault point at which to panic (see
// HeaderFaultHook and internal/server's fault-point table in
// docs/INTERNALS.md §13).
const FaultHeader = "X-Fault-Panic"

// HeaderFaultHook returns a server fault hook (server.Config.Fault):
// the server invokes it at each named fault point with the incoming
// request's headers, and the hook panics when the request's
// FaultHeader names that point — per-request, client-triggered chaos,
// exercising the server's recovery middleware exactly where real
// bugs would fire. The returned counter reports how often it fired.
func HeaderFaultHook() (hook func(point string, h http.Header), fired *atomic.Int32) {
	var count atomic.Int32
	return func(point string, h http.Header) {
		if h.Get(FaultHeader) == point {
			count.Add(1)
			panic(fmt.Sprintf("faultinject: injected panic at server fault point %q", point))
		}
	}, &count
}

// errorTB is the subset of testing.TB the leak checker needs; taking
// the interface keeps this package importable outside tests.
type errorTB interface {
	Helper()
	Errorf(format string, args ...any)
}

// CheckGoroutines records the current goroutine count and returns a
// function to defer: it polls until the count returns to the baseline
// (scheduler teardown is asynchronous, so a few retries are normal)
// and reports a leak through tb if it never does.
func CheckGoroutines(tb errorTB) func() {
	tb.Helper()
	before := runtime.NumGoroutine()
	return func() {
		tb.Helper()
		deadline := time.Now().Add(2 * time.Second)
		var after int
		for {
			after = runtime.NumGoroutine()
			if after <= before || time.Now().After(deadline) {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		if after > before {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			tb.Errorf("goroutine leak: %d before, %d after\n%s", before, after, buf)
		}
	}
}

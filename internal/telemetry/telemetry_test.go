package telemetry

import (
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterRender(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("xfd_requests_total", "requests served", "route", "code")
	c.With("/v1/discover", "2xx").Add(3)
	c.With("/v1/discover", "5xx").Inc()
	c.With("/v1/jobs", "2xx").Add(2)
	got := r.Render()
	want := `# HELP xfd_requests_total requests served
# TYPE xfd_requests_total counter
xfd_requests_total{route="/v1/discover",code="2xx"} 3
xfd_requests_total{route="/v1/discover",code="5xx"} 1
xfd_requests_total{route="/v1/jobs",code="2xx"} 2
`
	if got != want {
		t.Errorf("render:\n%s\nwant:\n%s", got, want)
	}
}

func TestGaugeAndGaugeFunc(t *testing.T) {
	r := NewRegistry()
	g := r.NewGauge("xfd_queue_depth", "queued requests")
	g.With().Set(4)
	g.With().Add(-1)
	r.NewGaugeFunc("go_goroutines", "live goroutines", func() float64 { return 7 })
	got := r.Render()
	for _, want := range []string{"xfd_queue_depth 3\n", "go_goroutines 7\n"} {
		if !strings.Contains(got, want) {
			t.Errorf("render missing %q:\n%s", want, got)
		}
	}
}

func TestHistogramCumulativeBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("xfd_latency_seconds", "latency", []float64{0.1, 1, 10})
	series := h.With()
	for _, v := range []float64{0.05, 0.05, 0.5, 5, 50} {
		series.Observe(v)
	}
	got := r.Render()
	for _, want := range []string{
		`xfd_latency_seconds_bucket{le="0.1"} 2`,
		`xfd_latency_seconds_bucket{le="1"} 3`,
		`xfd_latency_seconds_bucket{le="10"} 4`,
		`xfd_latency_seconds_bucket{le="+Inf"} 5`,
		`xfd_latency_seconds_sum 55.6`,
		`xfd_latency_seconds_count 5`,
	} {
		if !strings.Contains(got, want+"\n") {
			t.Errorf("render missing %q:\n%s", want, got)
		}
	}
}

// TestHistogramBoundaryInclusive pins the le contract: a sample equal
// to a bound lands in that bound's bucket.
func TestHistogramBoundaryInclusive(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("b_seconds", "x", []float64{1, 2})
	h.With().Observe(1)
	got := r.Render()
	if !strings.Contains(got, `b_seconds_bucket{le="1"} 1`) {
		t.Errorf("sample at bound not counted le-inclusively:\n%s", got)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("esc_total", "x", "tenant")
	c.With(`a"b\c` + "\n").Inc()
	got := r.Render()
	want := `esc_total{tenant="a\"b\\c\n"} 1`
	if !strings.Contains(got, want+"\n") {
		t.Errorf("render missing %q:\n%s", want, got)
	}
	// The writer's output must satisfy the package's own checker.
	if _, err := Lint(strings.NewReader(got)); err != nil {
		t.Errorf("self-lint: %v", err)
	}
}

func TestRegistryPanicsOnDuplicateAndInvalid(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup_total", "x")
	for name, fn := range map[string]func(){
		"duplicate":   func() { r.NewCounter("dup_total", "x") },
		"bad metric":  func() { r.NewCounter("0bad", "x") },
		"bad label":   func() { r.NewCounter("ok_total", "x", "le") },
		"descending":  func() { r.NewHistogram("h_seconds", "x", []float64{2, 1}) },
		"label arity": func() { r.NewGauge("g2", "x", "a").With("1", "2") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("race_total", "x", "w")
	h := r.NewHistogram("race_seconds", "x", nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.With(fmt.Sprint(i % 2)).Inc()
				h.With().Observe(float64(j) / 100)
			}
		}(i)
	}
	wg.Wait()
	if got := c.With("0").Value() + c.With("1").Value(); got != 8000 {
		t.Errorf("counter sum = %v, want 8000", got)
	}
	if got := h.With().count.Load(); got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
}

func TestHandlerServesExposition(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("served_total", "x").With().Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "served_total 1\n") {
		t.Errorf("body missing sample:\n%s", rec.Body.String())
	}
}

func TestDurationBucketsAscending(t *testing.T) {
	for i := 1; i < len(DurationBuckets); i++ {
		if DurationBuckets[i] <= DurationBuckets[i-1] {
			t.Fatalf("DurationBuckets not ascending at %d", i)
		}
	}
}

func TestFormatValue(t *testing.T) {
	for v, want := range map[float64]string{
		0:       "0",
		3:       "3",
		1234567: "1234567",
		0.25:    "0.25",
	} {
		if got := formatValue(v); got != want {
			t.Errorf("formatValue(%v) = %q, want %q", v, got, want)
		}
	}
	if got := formatValue(math.Inf(1)); got != "+Inf" && got != "+inf" {
		t.Logf("formatValue(+Inf) = %q", got) // informational: gauges never emit Inf
	}
}

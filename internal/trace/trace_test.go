package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"log/slog"
	"strings"
	"testing"
	"time"
)

// fixedClock returns a clock that advances by step per call.
func fixedClock(step time.Duration) func() time.Time {
	t := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	return func() time.Time {
		t = t.Add(step)
		return t
	}
}

func TestNilSafety(t *testing.T) {
	// All package helpers must tolerate a nil tracer.
	Emit(nil, &Event{Kind: KindRunStart})
	if WithRun(nil, "run-1") != nil {
		t.Error("WithRun(nil) should stay nil")
	}
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Error("Multi with no live tracers should collapse to nil")
	}
	Discard.Emit(&Event{Kind: KindLevel})
}

func TestMultiCollapsesAndFansOut(t *testing.T) {
	a, b := NewJSONL(&bytes.Buffer{}), NewJSONL(&bytes.Buffer{})
	if got := Multi(nil, a); got != a {
		t.Errorf("single live tracer should be returned as-is, got %T", got)
	}
	var bufA, bufB bytes.Buffer
	ja, jb := NewJSONL(&bufA), NewJSONL(&bufB)
	m := Multi(ja, nil, jb)
	m.Emit(&Event{Kind: KindRunStart, Run: "run-1"})
	if bufA.Len() == 0 || bufB.Len() == 0 {
		t.Errorf("fan-out missed a backend: %d/%d bytes", bufA.Len(), bufB.Len())
	}
	_ = b
}

func TestWithRunStampsEvents(t *testing.T) {
	var buf bytes.Buffer
	tr := WithRun(NewJSONL(&buf), "run-7")
	tr.Emit(&Event{Kind: KindStageStart, Stage: "plan"})
	var ev Event
	if err := json.Unmarshal(buf.Bytes(), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Run != "run-7" || ev.Stage != "plan" {
		t.Errorf("stamped event = %+v", ev)
	}
}

func TestJSONLDeterministicOrderAndTimestamp(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	j.now = fixedClock(time.Millisecond)
	j.Emit(&Event{Kind: KindRunStart, Run: "run-1"})
	j.Emit(&Event{Kind: KindRunEnd, Run: "run-1", DurationMS: 1.5})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], `{"event":"run_start"`) {
		t.Errorf("first field must be the kind: %s", lines[0])
	}
	var ev Event
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Time.IsZero() {
		t.Error("backend must stamp the timestamp")
	}
	if j.Err() != nil {
		t.Errorf("unexpected error: %v", j.Err())
	}
}

// failWriter fails every write after the first.
type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.n++
	if w.n > 1 {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

func TestJSONLErrorLatches(t *testing.T) {
	j := NewJSONL(&failWriter{})
	j.Emit(&Event{Kind: KindRunStart, Run: "run-1"})
	if j.Err() != nil {
		t.Fatalf("first write should succeed: %v", j.Err())
	}
	j.Emit(&Event{Kind: KindRunEnd, Run: "run-1"})
	first := j.Err()
	if first == nil {
		t.Fatal("second write should latch the error")
	}
	// Later emissions are dropped, the first error is kept.
	j.Emit(&Event{Kind: KindLevel})
	if j.Err() != first {
		t.Errorf("error not latched: %v", j.Err())
	}
}

func TestProgressVerbosityAndThrottle(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(slog.New(slog.NewTextHandler(&buf, nil)), false)
	p.Emit(&Event{Kind: KindLevel, Relation: "/a", Level: 2})
	if buf.Len() != 0 {
		t.Errorf("-v must not log level events: %s", buf.String())
	}
	p.Emit(&Event{Kind: KindStageStart, Run: "run-1", Stage: "traverse"})
	if !strings.Contains(buf.String(), "stage_start") {
		t.Errorf("span events must always log: %s", buf.String())
	}

	buf.Reset()
	pv := NewProgress(slog.New(slog.NewTextHandler(&buf, nil)), true)
	pv.now = fixedClock(time.Millisecond) // well under the throttle
	for i := 0; i < 10; i++ {
		pv.Emit(&Event{Kind: KindLevel, Relation: "/a", Level: i + 1})
	}
	if got := strings.Count(buf.String(), "msg=level"); got != 1 {
		t.Errorf("throttle admitted %d level records, want 1:\n%s", got, buf.String())
	}
	// A different relation has its own throttle window.
	pv.Emit(&Event{Kind: KindTarget, Relation: "/b", Action: "create", Pairs: 3})
	if !strings.Contains(buf.String(), "target") {
		t.Errorf("fresh relation should be admitted:\n%s", buf.String())
	}

	// Past the interval the same relation logs again.
	buf.Reset()
	pt := NewProgress(slog.New(slog.NewTextHandler(&buf, nil)), true)
	pt.now = fixedClock(DefaultThrottle + time.Millisecond)
	pt.Emit(&Event{Kind: KindLevel, Relation: "/a", Level: 1})
	pt.Emit(&Event{Kind: KindLevel, Relation: "/a", Level: 2})
	if got := strings.Count(buf.String(), "msg=level"); got != 2 {
		t.Errorf("interval-spaced events admitted %d times, want 2:\n%s", got, buf.String())
	}
}

func TestProgressSeverity(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(slog.New(slog.NewTextHandler(&buf, nil)), false)
	p.Emit(&Event{Kind: KindGovernor, Action: "truncate", Detail: "deadline exceeded"})
	if !strings.Contains(buf.String(), "level=WARN") {
		t.Errorf("truncation should warn: %s", buf.String())
	}
	buf.Reset()
	p.Emit(&Event{Kind: KindRunEnd, Run: "run-1", Err: "boom"})
	if !strings.Contains(buf.String(), "level=ERROR") {
		t.Errorf("failed run should log at error: %s", buf.String())
	}
	buf.Reset()
	p.Emit(&Event{Kind: KindRunEnd, Run: "run-1", Truncated: true, DurationMS: 4})
	if !strings.Contains(buf.String(), "level=WARN") || !strings.Contains(buf.String(), "truncated=true") {
		t.Errorf("truncated run_end should warn with the flag: %s", buf.String())
	}
}

func TestProgressDefaultsToSlogDefault(t *testing.T) {
	p := NewProgress(nil, false)
	if p.log == nil {
		t.Fatal("nil logger should fall back to slog.Default")
	}
}

// validTrace writes a minimal schema-complete run.
func validTrace() string {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	tr := WithRun(j, "run-1")
	tr.Emit(&Event{Kind: KindRunStart, Relations: 2, Tuples: 10})
	for _, s := range Stages {
		tr.Emit(&Event{Kind: KindStageStart, Stage: s})
		if s == "traverse" {
			tr.Emit(&Event{Kind: KindRelationStart, Relation: "/a/b", Tuples: 10, Attrs: 3})
			tr.Emit(&Event{Kind: KindLevel, Relation: "/a/b", Level: 1, Nodes: 3, CacheMisses: 3})
			tr.Emit(&Event{Kind: KindTarget, Relation: "/a/b", Action: "create", Pairs: 4})
			tr.Emit(&Event{Kind: KindGovernor, Action: "worker_spawn", Workers: 2, Detail: "product workers for 4 level-2 partitions"})
			tr.Emit(&Event{Kind: KindRelationEnd, Relation: "/a/b", DurationMS: 0.5})
		}
		tr.Emit(&Event{Kind: KindStageEnd, Stage: s, DurationMS: 1})
	}
	tr.Emit(&Event{Kind: KindRunEnd, DurationMS: 6})
	return buf.String()
}

// partialStageTrace ends a run cleanly but skips the verify stage.
func partialStageTrace() string {
	var buf bytes.Buffer
	tr := WithRun(NewJSONL(&buf), "run-1")
	tr.Emit(&Event{Kind: KindRunStart})
	for _, s := range Stages {
		if s == "verify" {
			continue
		}
		tr.Emit(&Event{Kind: KindStageStart, Stage: s})
		tr.Emit(&Event{Kind: KindStageEnd, Stage: s})
	}
	tr.Emit(&Event{Kind: KindRunEnd})
	return buf.String()
}

func TestValidateJSONLAccepts(t *testing.T) {
	sum, err := ValidateJSONL(strings.NewReader(validTrace()))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Runs != 1 || sum.Events == 0 {
		t.Errorf("summary = %+v", sum)
	}
}

func TestValidateJSONLRejects(t *testing.T) {
	good := validTrace()
	stamp := `"t":"2026-01-01T00:00:00Z"`
	cases := []struct {
		name string
		in   string
		want string
	}{
		{"garbage", "not json\n", "invalid character"},
		{"unknown field", `{"event":"run_start","run":"r","t":"2026-01-01T00:00:00Z","bogus":1}` + "\n", "bogus"},
		{"unknown kind", `{"event":"warp","run":"r",` + stamp + `}` + "\n", "unknown event kind"},
		{"no timestamp", `{"event":"run_start","run":"r"}` + "\n", "without a timestamp"},
		{"no run id", `{"event":"stage_start","stage":"plan",` + stamp + `}` + "\n", "without a run id"},
		{"before run_start", `{"event":"stage_start","run":"r","stage":"plan",` + stamp + `}` + "\n", "before its run_start"},
		{"unknown stage", strings.Replace(good, `"stage":"plan"`, `"stage":"warp"`, 2), "unknown stage"},
		{"missing stage", partialStageTrace(), `without tracing stage "verify"`},
		{"unclosed run", strings.Split(good, "\n")[0] + "\n", "no run_end"},
		{"bad target action", strings.Replace(good, `"action":"create"`, `"action":"zap"`, 1), "target event with action"},
		{"level outside relation", `{"event":"run_start","run":"r",` + stamp + `}` + "\n" +
			`{"event":"level","run":"r","relation":"/x","level":1,` + stamp + `}` + "\n", "outside a relation span"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ValidateJSONL(strings.NewReader(c.in))
			if err == nil {
				t.Fatalf("validator accepted %s", c.name)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestValidateJSONLFailedRunNeedsNoStages(t *testing.T) {
	var buf bytes.Buffer
	tr := WithRun(NewJSONL(&buf), "run-9")
	tr.Emit(&Event{Kind: KindRunStart})
	tr.Emit(&Event{Kind: KindRunEnd, Err: "panic during discovery"})
	if _, err := ValidateJSONL(&buf); err != nil {
		t.Errorf("failed run should validate without stage spans: %v", err)
	}
}

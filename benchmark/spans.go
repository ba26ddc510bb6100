package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"discoverxfd/internal/trace"
)

// span is one timed interval of a traced op: either a call the
// benchmark made into a layer, or an engine span rebuilt from the
// engine's start/end trace events.
type span struct {
	id, parent int // parent 0: a top-level span of its op
	op         int
	name       string
	start, end time.Time
	vals       map[string]float64 // counts attached to the span (bytes, tuples, Stats fields, alloc)
}

func (s *span) dur() time.Duration { return s.end.Sub(s.start) }

// recorder keeps a traced run's spans in memory. The benchmark opens
// spans around its own calls (span, layer); the engine and the server
// feed their existing trace events in through Emit, which turns
// run/stage/relation start-end pairs into child spans of whatever
// benchmark span is open. Ops run one at a time in a traced run, so
// the open spans form a single stack. A nil *recorder records nothing.
type recorder struct {
	mu     sync.Mutex
	t0     time.Time
	op     int // current op; -1 outside ops
	spans  []*span
	open   []*span            // open benchmark spans, innermost last
	runs   map[string][]*span // open engine spans per run id
	counts map[trace.Kind]int // events that carry no span
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), op: -1, runs: map[string][]*span{}, counts: map[trace.Kind]int{}}
}

// tracer returns the recorder as the engine's and server's Tracer, or
// a nil interface when tracing is off.
func (r *recorder) tracer() trace.Tracer {
	if r == nil {
		return nil
	}
	return r
}

func (r *recorder) beginOp(op int) {
	if r != nil {
		r.mu.Lock()
		r.op = op
		r.mu.Unlock()
	}
}

func (r *recorder) endOp() { r.beginOp(-1) }

// newSpan opens a span under parent (nil: top level); callers hold mu.
func (r *recorder) newSpan(name string, parent *span, start time.Time) *span {
	s := &span{id: len(r.spans) + 1, op: r.op, name: name, start: start}
	if parent != nil {
		s.parent = parent.id
	}
	r.spans = append(r.spans, s)
	return s
}

func (r *recorder) top() *span {
	if len(r.open) == 0 {
		return nil
	}
	return r.open[len(r.open)-1]
}

// span times fn as a span under the innermost open one.
func (r *recorder) span(name string, fn func(*span) error) error {
	if r == nil {
		return fn(nil)
	}
	r.mu.Lock()
	s := r.newSpan(name, r.top(), time.Time{})
	r.open = append(r.open, s)
	r.mu.Unlock()
	s.start = time.Now()
	err := fn(s)
	end := time.Now()
	r.mu.Lock()
	s.end = end
	r.open = r.open[:len(r.open)-1]
	r.mu.Unlock()
	return err
}

// layer is span for a call into one layer's exported function; it
// also records the bytes the call allocated. The memory statistics are
// read outside the span's interval, so their cost lands in the parent.
func (r *recorder) layer(name string, fn func(*span) error) error {
	if r == nil {
		return fn(nil)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	var s0 *span
	err := r.span(name, func(s *span) error { s0 = s; return fn(s) })
	runtime.ReadMemStats(&ms)
	r.set(s0, "alloc", float64(ms.TotalAlloc-before))
	return err
}

// set attaches a count to a span; set on a nil span does nothing.
func (r *recorder) set(s *span, key string, v float64) {
	if r == nil || s == nil {
		return
	}
	r.mu.Lock()
	if s.vals == nil {
		s.vals = map[string]float64{}
	}
	s.vals[key] += v
	r.mu.Unlock()
}

// Emit implements trace.Tracer.
func (r *recorder) Emit(ev *trace.Event) {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.op < 0 {
		return // set-up and checks outside ops
	}
	stack := r.runs[ev.Run]
	parent := r.top()
	if len(stack) > 0 {
		parent = stack[len(stack)-1]
	}
	switch ev.Kind {
	case trace.KindRunStart:
		r.runs[ev.Run] = append(stack, r.newSpan("run", parent, now))
	case trace.KindStageStart:
		r.runs[ev.Run] = append(stack, r.newSpan("stage:"+ev.Stage, parent, now))
	case trace.KindRelationStart:
		r.runs[ev.Run] = append(stack, r.newSpan("relation:"+ev.Relation, parent, now))
	case trace.KindRunEnd, trace.KindStageEnd, trace.KindRelationEnd:
		if len(stack) == 0 {
			r.counts[ev.Kind]++
			return
		}
		stack[len(stack)-1].end = now
		if stack = stack[:len(stack)-1]; len(stack) == 0 {
			delete(r.runs, ev.Run)
		} else {
			r.runs[ev.Run] = stack
		}
	case trace.KindUpdateApply:
		s := r.newSpan("update_apply", parent, now.Add(-time.Duration(ev.DurationMS*float64(time.Millisecond))))
		s.end = now
	case trace.KindPartitionPatch:
		if parent != nil {
			if parent.vals == nil {
				parent.vals = map[string]float64{}
			}
			parent.vals["kept"] += float64(ev.Kept)
			parent.vals["patched"] += float64(ev.Patched)
			parent.vals["dropped"] += float64(ev.Dropped)
		}
	default:
		r.counts[ev.Kind]++
	}
}

// selfTime is s's duration minus the part of it that the given spans
// cover; overlapping children are counted once, and parts of a child
// outside s are ignored.
func selfTime(s *span, children []*span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		a, b := c.start, c.end
		if a.Before(s.start) {
			a = s.start
		}
		if b.After(s.end) {
			b = s.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	covered := time.Duration(0)
	var cur iv
	for i, x := range ivs {
		switch {
		case i == 0:
			cur = x
		case !x.a.After(cur.b):
			if x.b.After(cur.b) {
				cur.b = x.b
			}
		default:
			covered += cur.b.Sub(cur.a)
			cur = x
		}
	}
	if len(ivs) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return s.dur() - covered
}

// layerSpans names the spans that count as layer time: everything
// else inside an op is glue, reported as unattributed_ms.
var layerSpans = map[string]bool{
	"source": true, "datatree": true, "relation": true, "core": true,
	"encode": true, "http": true, "update": true,
}

// opTree indexes one op's spans.
type opTree struct {
	byID     map[int]*span
	byName   map[string][]*span
	children map[int][]*span
}

// under returns the spans with the given name whose parent is named
// container.
func (t *opTree) under(name, container string) []*span {
	var out []*span
	for _, s := range t.byName[name] {
		if p := t.byID[s.parent]; p != nil && p.name == container {
			out = append(out, s)
		}
	}
	return out
}

func (t *opTree) descendants(s *span, keep func(*span) bool) []*span {
	var out []*span
	for _, c := range t.children[s.id] {
		if keep(c) {
			out = append(out, c)
		} else {
			out = append(out, t.descendants(c, keep)...)
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// perOp computes one op's per-layer numbers from its spans. The core
// and encode layers count only inside the "library" span, the library
// pipeline that did the op's own work (on update_resident, the warm
// replay of the served update); the ingest layers count wherever they
// ran, which on update_resident is the cold-rebuild check.
func (t *opTree) perOp() map[string]float64 {
	v := map[string]float64{}
	sum := func(name, key string) float64 {
		spans := t.byName[name]
		if name == "core" || name == "encode" {
			spans = t.under(name, "library")
		}
		x := 0.0
		for _, s := range spans {
			if key == "" {
				x += ms(s.dur())
			} else {
				x += s.vals[key]
			}
		}
		return x
	}
	const mb = 1e6
	v["source.parse_ms"] = sum("source", "")
	v["source.parse_ns_per_byte"] = sum("source", "") * 1e6 / sum("source", "bytes")
	v["source.parse_alloc_mb"] = sum("source", "alloc") / mb
	v["datatree.infer_ms"] = sum("datatree", "")
	v["datatree.infer_alloc_mb"] = sum("datatree", "alloc") / mb
	v["relation.build_ms"] = sum("relation", "")
	v["relation.build_ns_per_tuple"] = sum("relation", "") * 1e6 / sum("relation", "tuples")
	v["relation.build_alloc_mb"] = sum("relation", "alloc") / mb

	v["core.discover_ms"] = sum("core", "")
	v["core.discover_alloc_mb"] = sum("core", "alloc") / mb
	stages := 0.0
	for _, c := range t.under("core", "library") {
		staged := t.descendants(c, func(s *span) bool { return strings.HasPrefix(s.name, "stage:") })
		for _, st := range staged {
			v["core."+strings.TrimPrefix(st.name, "stage:")+"_ms"] += ms(st.dur())
		}
		stages += ms(selfTime(c, staged))
	}
	v["core.unstaged_ms"] = stages
	v["core.intra_ms"] = sum("core", "intra_ms")
	v["core.inter_ms"] = sum("core", "inter_ms")
	v["core.lattice_nodes"] = sum("core", "lattice_nodes")
	v["core.partitions_computed"] = sum("core", "partitions_computed")
	v["core.cache_hit_ratio"] = sum("core", "cache_hits") / (sum("core", "cache_hits") + sum("core", "cache_misses"))
	v["core.targets_created"] = sum("core", "targets_created")
	v["core.targets_dropped"] = sum("core", "targets_dropped")
	v["core.relations_reused_ratio"] = sum("core", "relations_reused") / sum("core", "relations")
	v["core.partitions_kept"] = sum("update", "kept")
	v["core.partitions_patched"] = sum("update", "patched")
	v["core.partitions_dropped"] = sum("update", "dropped")

	v["encode.ms"] = sum("encode", "")
	v["encode.bytes"] = sum("encode", "bytes")
	isLayer := func(s *span) bool { return layerSpans[s.name] }
	library := 0.0 // time in the library pipeline's layers, without the memory reads between them
	for _, l := range t.byName["library"] {
		library += ms(l.dur() - selfTime(l, t.descendants(l, isLayer)))
	}
	v["server.request_ms"] = sum("http", "")
	v["server.response_bytes"] = sum("http", "bytes")
	v["server.overhead_ms"] = sum("http", "") - library

	for _, op := range t.byName["op"] {
		v["unattributed_ms"] += ms(selfTime(op, t.descendants(op, isLayer)))
	}
	return v
}

// layerMetrics groups the recorded spans by op and returns the median
// over ops of every per-layer number.
func (r *recorder) layerMetrics() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	ops := map[int]*opTree{}
	for _, s := range r.spans {
		if s.op < 0 || s.end.IsZero() {
			continue
		}
		t := ops[s.op]
		if t == nil {
			t = &opTree{byID: map[int]*span{}, byName: map[string][]*span{}, children: map[int][]*span{}}
			ops[s.op] = t
		}
		t.byID[s.id] = s
		t.byName[s.name] = append(t.byName[s.name], s)
		t.children[s.parent] = append(t.children[s.parent], s)
	}
	samples := map[string][]float64{}
	for _, t := range ops {
		for k, x := range t.perOp() {
			samples[k] = append(samples[k], x)
		}
	}
	out := map[string]float64{}
	for k, xs := range samples {
		out[k] = median(xs)
	}
	return out
}

// writeJSONL writes every span, one JSON object per line, with times in
// microseconds since the recorder started, followed by one line counting
// the events that carry no span.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	us := func(t time.Time) float64 { return float64(t.Sub(r.t0)) / float64(time.Microsecond) }
	r.mu.Lock()
	for _, s := range r.spans {
		if err == nil {
			err = enc.Encode(map[string]any{
				"op": s.op, "id": s.id, "parent": s.parent, "name": s.name,
				"start_us": us(s.start), "end_us": us(s.end), "vals": s.vals,
			})
		}
	}
	if err == nil {
		err = enc.Encode(map[string]any{"events": r.counts})
	}
	r.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing spans to %s: %w", path, err)
	}
	return nil
}

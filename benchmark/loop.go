package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// instance is a set-up workload, ready to run ops against.
type instance interface {
	// op runs op k of client c. It returns a check of the op's output,
	// which the loop calls after the op's time is taken.
	op(ctx context.Context, c, k int) (check func() error, err error)
	// finish runs the checks that need the whole run; it returns the
	// op numbers whose output turned out wrong.
	finish(ctx context.Context) ([]int, error)
	close()
}

// interval is when one successful op ran.
type interval struct{ start, end time.Time }

func (iv interval) ms() float64 { return ms(iv.end.Sub(iv.start)) }

// epoch is one part of the timed window.
type epoch struct {
	start, end time.Time  // first op start until every client stopped
	ops        []interval // successful ops
	speed      float64    // host speed around the epoch (see probe.go)
}

// epochs is how many parts the timed window is cut into.
const epochs = 10

// loopResult is what one closed-loop phase measured.
type loopResult struct {
	attempted, failed int
	failedOps         map[int]bool // client 0's op numbers that failed (single-client workloads)
	epochs            []epoch
	runtime           runtimeStats // counter deltas over the epochs, probes excluded
}

type clientResult struct {
	attempted, failed int
	failedOps         map[int]bool
	ops               []interval
	end               time.Time // when the client stopped
}

// latencies returns every successful op's latency in ms, scaled by
// its epoch's host speed.
func (lr loopResult) latencies() []float64 {
	var out []float64
	for _, e := range lr.epochs {
		for _, iv := range e.ops {
			out = append(out, iv.ms()*e.speed)
		}
	}
	return out
}

// succeeded counts the window's successful ops.
func (lr loopResult) succeeded() int {
	n := 0
	for _, e := range lr.epochs {
		n += len(e.ops)
	}
	return n
}

// summary returns the window's throughput — successful ops per second
// of reference-host time, each epoch's duration scaled by its host
// speed — and the median over epochs of each epoch's median and 90th
// percentile latency, scaled likewise. Taking latencies per epoch keeps
// a burst of contention the probe misreads from moving more than the
// epochs it covers. raw is the same without the scaling.
func (lr loopResult) summary(raw bool) (throughput, p50, p90 float64) {
	var q50, q90 []float64
	ops, seconds := 0, 0.0
	for _, e := range lr.epochs {
		s := e.speed
		if raw {
			s = 1
		}
		ops += len(e.ops)
		seconds += e.end.Sub(e.start).Seconds() * s
		if len(e.ops) == 0 {
			continue
		}
		lat := make([]float64, len(e.ops))
		for i, iv := range e.ops {
			lat[i] = iv.ms() * s
		}
		q50 = append(q50, percentile(lat, 50))
		q90 = append(q90, percentile(lat, 90))
	}
	return float64(ops) / seconds, median(q50), median(q90)
}

// runClient runs client c's ops k = from, from+1, … until n ops are
// done or the deadline passes, whichever comes first (n < 0: no count
// limit). Each op is traced as an "op" span when rec is set.
func runClient(ctx context.Context, inst instance, rec *recorder, c, from, n int, deadline time.Time) clientResult {
	res := clientResult{failedOps: map[int]bool{}}
	for k := from; (n < 0 || k < from+n) && time.Now().Before(deadline); k++ {
		rec.beginOp(k)
		var check func() error
		iv := interval{start: time.Now()}
		err := rec.span("op", func(*span) error {
			var err error
			check, err = inst.op(ctx, c, k)
			return err
		})
		iv.end = time.Now()
		if err == nil {
			err = check()
		}
		rec.endOp()
		res.attempted++
		if err != nil {
			res.failed++
			res.failedOps[k] = true
			fmt.Fprintf(os.Stderr, "benchmark: op %d of client %d failed: %v\n", k, c, err)
			continue
		}
		res.ops = append(res.ops, iv)
	}
	res.end = time.Now()
	return res
}

// runClients runs the clients concurrently, client c from op number
// from[c], and waits for all of them; it advances from past the ops
// each client ran.
func runClients(ctx context.Context, inst instance, rec *recorder, from []int, n int, deadline time.Time) []clientResult {
	done := make(chan struct{}, len(from))
	defer close(done) // every client has sent by the time this runs
	results := make([]clientResult, len(from))
	for c := range from {
		c := c
		//lint:governed client goroutines are joined below through done before runClients returns, and each stops at the deadline.
		go func() {
			results[c] = runClient(ctx, inst, rec, c, from[c], n, deadline)
			done <- struct{}{}
		}()
	}
	for range from {
		<-done
	}
	for c, r := range results {
		from[c] += r.attempted
	}
	return results
}

// runtimeStats is the slice of runtime counters a window reports.
type runtimeStats struct {
	alloc           uint64 // bytes allocated (MemStats.TotalAlloc)
	gcCycles        uint32
	gcCPU, totalCPU float64 // CPU seconds, the runtime's own estimates
}

func readRuntime() runtimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return runtimeStats{alloc: ms.TotalAlloc, gcCycles: ms.NumGC, gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64()}
}

// closedLoop runs warmup ops per client, then every client in a closed
// loop — each sends its next op only once the previous one returned —
// for d, and measures that window. Warm-up ops are checked and counted
// as attempted, but not timed. The window is cut into epochs; before
// each one and after the last, with the clients idle, the probe
// measures the host's speed.
func closedLoop(ctx context.Context, inst instance, rec *recorder, probe func() float64, clients, warmup int, d time.Duration) loopResult {
	out := loopResult{failedOps: map[int]bool{}}
	add := func(results []clientResult) {
		for c, r := range results {
			out.attempted += r.attempted
			out.failed += r.failed
			if c == 0 {
				for k := range r.failedOps {
					out.failedOps[k] = true
				}
			}
		}
	}
	next := make([]int, clients)
	add(runClients(ctx, inst, nil, next, warmup, time.Now().Add(time.Hour)))
	runtime.GC()
	speed := probe()
	for i := 0; i < epochs; i++ {
		before := readRuntime()
		e := epoch{start: time.Now()}
		e.end = e.start
		results := runClients(ctx, inst, rec, next, -1, e.start.Add(d/epochs))
		add(results)
		for _, r := range results {
			e.ops = append(e.ops, r.ops...)
			if r.end.After(e.end) {
				e.end = r.end
			}
		}
		after := readRuntime()
		out.runtime.alloc += after.alloc - before.alloc
		out.runtime.gcCycles += after.gcCycles - before.gcCycles
		out.runtime.gcCPU += after.gcCPU - before.gcCPU
		out.runtime.totalCPU += after.totalCPU - before.totalCPU
		later := probe()
		e.speed = (speed + later) / 2
		speed = later
		out.epochs = append(out.epochs, e)
	}
	return out
}

// median is the middle value (the mean of the two middle ones for an
// even count), as Python's statistics.median.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the method of
// Python's statistics.quantiles(xs, n=4) ("exclusive").
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// percentile interpolates linearly between the closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

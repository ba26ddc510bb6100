package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"discoverxfd/internal/trace"
)

// governor is the resource-governance state shared by one discovery
// run. It distinguishes two ways a run can end early:
//
//   - cancellation (the context fired): the run aborts with an error;
//   - budget exhaustion (the wall-clock deadline passed, or a search
//     bound such as MaxLatticeLevel cut the traversal): the run keeps
//     whatever it has found and reports a partial Result with
//     Stats.Truncated set — graceful degradation, never an error.
//
// All methods are safe for concurrent use by the level precompute's
// product workers and are no-ops on a nil receiver, so ungoverned
// entry points need no special casing.
type governor struct {
	ctx      context.Context
	deadline time.Time // zero = no wall-clock budget

	// tr is the run-stamped tracer (nil = untraced). Governor events
	// are emitted outside mu: a slow tracing backend must never hold
	// up the workers polling expired/cancelled.
	tr trace.Tracer

	mu        sync.Mutex
	truncated bool   // guarded by mu
	reason    string // guarded by mu
}

// cancelled returns a wrapped context error once the context fires.
//
// One carve-out keeps deadline composition deterministic: when the
// context died of its own *deadline* and the run's wall-clock budget
// is also spent, the exhaustion is treated as budget truncation — the
// run winds down through the expired() checks and returns the partial
// Result found so far, never an error. The public layer composes the
// governor deadline as min(Limits.Deadline, ctx deadline), so a fired
// context deadline always implies an expired budget; without the
// carve-out the two checks would race and the outcome (partial result
// versus error) would depend on which poll site ran first. Explicit
// cancellation (context.Canceled) always aborts with an error.
func (g *governor) cancelled() error {
	if g == nil {
		return nil
	}
	select {
	case <-g.ctx.Done():
		if errors.Is(g.ctx.Err(), context.DeadlineExceeded) && g.expired() {
			return nil
		}
		return fmt.Errorf("core: discovery cancelled: %w", g.ctx.Err())
	default:
		return nil
	}
}

// expired reports whether the wall-clock budget is spent, recording
// the truncation on first observation. It reports the deadline alone:
// a truncation for another reason (a tuple budget, a lattice cap) has
// already cut what it cuts and must not stop the rest of the run.
func (g *governor) expired() bool {
	if g == nil || g.deadline.IsZero() || !time.Now().After(g.deadline) {
		return false
	}
	g.truncate("deadline exceeded")
	return true
}

// productWorkers returns how many goroutines a level precompute may
// use: the job count, capped at the machine's parallelism. Nil-safe
// like every governor method: an ungoverned traversal, such as
// DiscoverRelation's, uses one worker.
func (g *governor) productWorkers(jobs int) int {
	if g == nil {
		return 1
	}
	if p := runtime.GOMAXPROCS(0); jobs > p {
		return p
	}
	return jobs
}

// workerGroup launches the engine's parallel workers. It is the only
// place in the library allowed to start goroutines: every worker it
// spawns is joined by Wait, and a panic inside a worker is converted
// into an ordinary error (a *panicError, holding the worker's stack),
// so a bug in one worker surfaces as the run's error instead of
// crashing the process.
// The xfdlint govdiscipline analyzer enforces that bare `go`
// statements and raw sync.WaitGroup fan-out stay out of the rest of
// the engine (see docs/INTERNALS.md §10).
type workerGroup struct {
	//lint:governed workerGroup is the engine-wide spawn point; its WaitGroup is joined by Wait and guarded by the panic barrier in Go.
	wg sync.WaitGroup

	mu  sync.Mutex
	err error // guarded by mu
}

// Go runs fn on a new goroutine. A panic in fn is recovered, with its
// stack, for Wait to return. fn must do its own cancellation checks —
// the group guarantees only the join and the panic barrier.
func (g *workerGroup) Go(fn func()) {
	g.wg.Add(1)
	//lint:governed this is the one sanctioned spawn: Wait joins the goroutine and the deferred recover below turns its panics into errors.
	go func() {
		defer g.wg.Done()
		defer func() {
			if p := recover(); p != nil {
				err := recovered(p)
				g.mu.Lock()
				if g.err == nil {
					g.err = err
				}
				g.mu.Unlock()
			}
		}()
		fn()
	}()
}

// Wait joins every spawned worker and returns the first recovered
// panic, if any, as a *panicError; the caller names the worker.
func (g *workerGroup) Wait() error {
	g.wg.Wait()
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

// truncate records a budget exhaustion; the first reason wins and is
// reported to the trace once, after the mutex is released.
func (g *governor) truncate(reason string) {
	if g == nil {
		return
	}
	g.mu.Lock()
	first := !g.truncated
	if first {
		g.truncated = true
		g.reason = reason
	}
	g.mu.Unlock()
	if first && g.tr != nil {
		trace.Emit(g.tr, &trace.Event{Kind: trace.KindGovernor, Action: "truncate", Detail: reason})
	}
}

// status returns the truncation flag and reason for Stats.
func (g *governor) status() (bool, string) {
	if g == nil {
		return false, ""
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.truncated, g.reason
}

// panicError is a panic recovered on a run's goroutine or in one of its
// workers. Its text is the panic value alone: the error reaches HTTP
// clients through xfdd, and the goroutine stack, with its source paths
// and argument words, is for operators. They read it through
// PanicStack (xfdd logs it with the failed request) and in the run's
// run_end trace event.
type panicError struct {
	value any
	stack []byte
}

// recovered wraps a value recovered from a panic, taking the stack of
// the panicking goroutine; call it from the deferred function that
// recovered.
func recovered(p any) *panicError { return &panicError{value: p, stack: debug.Stack()} }

func (e *panicError) Error() string { return fmt.Sprint(e.value) }

// PanicStack returns the goroutine stack at the panic.
func (e *panicError) PanicStack() []byte { return e.stack }

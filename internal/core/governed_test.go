package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"discoverxfd/internal/faultinject"
	"discoverxfd/internal/partition"
	"discoverxfd/internal/relation"
	"discoverxfd/internal/xmlgen"
)

func buildAuction(t *testing.T) *relation.Hierarchy {
	t.Helper()
	ds := xmlgen.Auction(xmlgen.DefaultAuction())
	h, err := relation.Build(ds.Tree, ds.Schema, relation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestDeadlineReturnsPartialResult is the headline acceptance test: a
// discovery run whose deadline fires mid-traversal must return a
// partial Result with Stats.Truncated set — no error, no hang, no
// goroutine leak. The 18-attribute low-domain table with no injected
// FD takes well over a second to traverse exhaustively (thousands of
// minimal keys, none pruned by an FD), so a 50ms deadline reliably
// fires mid-lattice, and a 1s deadline fires late enough that the
// stages after the traversal (minimizing thousands of keys among
// them) must still return promptly. Its levels reach the precompute
// gate, so the deadline also stops product workers: one at
// GOMAXPROCS=1 ("serial"), several at the host's setting, at least 2
// ("parallel").
func TestDeadlineReturnsPartialResult(t *testing.T) {
	ds := xmlgen.Wide(xmlgen.WideParams{Rows: 1000, Attrs: 18, Domain: 6, FDEvery: 0, Seed: 5})
	h, err := relation.Build(ds.Tree, ds.Schema, relation.Options{})
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		suffix   string
		deadline time.Duration
	}{{"", 50 * time.Millisecond}, {"_1s", time.Second}} {
		for _, procs := range []int{1, max(2, runtime.GOMAXPROCS(0))} {
			name := "serial"
			if procs > 1 {
				name = "parallel"
			}
			t.Run(name+c.suffix, func(t *testing.T) {
				defer faultinject.CheckGoroutines(t)()
				var res *Result
				var err error
				start := time.Now()
				atProcs(procs, func() {
					res, err = NewEngine(Options{}).Discover(context.Background(), h, time.Now().Add(c.deadline), false)
				})
				elapsed := time.Since(start)
				if err != nil {
					t.Fatalf("deadline must degrade gracefully, got error: %v", err)
				}
				if !res.Stats.Truncated {
					t.Fatalf("%v deadline did not truncate a run that takes over 1s (finished in %v)", c.deadline, elapsed)
				}
				if res.Stats.TruncatedReason == "" {
					t.Error("Truncated set but TruncatedReason empty")
				}
				// Graceful means prompt: the run must stop soon after the
				// deadline, not finish the full traversal first.
				if elapsed > 2*time.Second {
					t.Errorf("truncated run still took %v", elapsed)
				}
				if res.Stats.NodesVisited == 0 {
					t.Error("partial result examined no lattice nodes at all")
				}
			})
		}
	}
}

// TestExpiredDeadlineTruncatesDeterministically uses an
// already-expired deadline so truncation is guaranteed, not timing
// dependent.
func TestExpiredDeadlineTruncatesDeterministically(t *testing.T) {
	h := buildAuction(t)
	eng := NewEngine(Options{})
	res, err := eng.Discover(context.Background(), h, time.Now().Add(-time.Second), false)
	if err != nil {
		t.Fatalf("expired deadline must not error: %v", err)
	}
	if !res.Stats.Truncated {
		t.Fatal("expired deadline did not mark the result truncated")
	}
	if !strings.Contains(res.Stats.TruncatedReason, "deadline") {
		t.Errorf("TruncatedReason = %q, want mention of the deadline", res.Stats.TruncatedReason)
	}
}

// TestCancelledContextIsAnError distinguishes the two stop channels:
// budget exhaustion truncates, cancellation errors.
func TestCancelledContextIsAnError(t *testing.T) {
	h := buildAuction(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := NewEngine(Options{}).Discover(ctx, h, time.Time{}, false)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Error("cancelled discovery returned a Result")
	}
}

// TestMaxLatticeLevelTruncates checks the lattice-level cap: results
// are the subset reachable at low levels, and the Stats say so.
func TestMaxLatticeLevelTruncates(t *testing.T) {
	h := buildAuction(t)
	full, err := discoverCold(h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	capped, err := discoverCold(h, Options{MaxLatticeLevel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !capped.Stats.Truncated {
		t.Fatal("lattice cap did not mark the result truncated")
	}
	if !strings.Contains(capped.Stats.TruncatedReason, "lattice") {
		t.Errorf("TruncatedReason = %q, want mention of the lattice cap", capped.Stats.TruncatedReason)
	}
	if capped.Stats.NodesVisited >= full.Stats.NodesVisited {
		t.Errorf("capped run visited %d lattice nodes, full run %d; cap had no effect",
			capped.Stats.NodesVisited, full.Stats.NodesVisited)
	}
	// Every single-attribute key found by the capped run must also be a
	// key of the full run: truncation loses answers, never invents them.
	fullKeys := map[string]bool{}
	for _, k := range full.Keys {
		fullKeys[k.String()] = true
	}
	for _, k := range capped.Keys {
		if !fullKeys[k.String()] {
			t.Errorf("capped run invented key %s", k)
		}
	}
	// A far deadline must not stop the capped traversal early.
	eng := NewEngine(Options{MaxLatticeLevel: 1})
	timed, err := eng.Discover(context.Background(), h, time.Now().Add(time.Hour), false)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(timed.FDs, timed.Keys), fmt.Sprint(capped.FDs, capped.Keys); got != want {
		t.Errorf("capped run with a far deadline found\n%s\nwant, as without a deadline,\n%s", got, want)
	}
}

// TestInjectedPanicSurfacesAsError checks panic containment: a panic
// on the traversal goroutine ("serial", from a relation hook) or in a
// level precompute's product worker ("parallel") becomes an error from
// the run with the relation named, not a process crash, and leaks no
// goroutines.
func TestInjectedPanicSurfacesAsError(t *testing.T) {
	check := func(t *testing.T, res *Result, err error, pivot string) {
		t.Helper()
		if err == nil {
			t.Fatal("injected panic did not surface as an error")
		}
		if !strings.Contains(err.Error(), "panic") || !strings.Contains(err.Error(), pivot) {
			t.Errorf("err = %q, want it to name the panic and the relation %s", err, pivot)
		}
		if res != nil {
			t.Error("panicked discovery returned a Result alongside the error")
		}
	}
	t.Run("serial", func(t *testing.T) {
		defer faultinject.CheckGoroutines(t)()
		hook, fired := faultinject.PanicHook("bid")
		res, err := discoverCold(buildAuction(t), Options{RelationHook: hook})
		check(t, res, err, "/site/auction/bid")
		if fired.Load() == 0 {
			t.Error("panic hook never fired")
		}
	})
	t.Run("parallel", func(t *testing.T) {
		defer faultinject.CheckGoroutines(t)()
		ds := xmlgen.Wide(xmlgen.DefaultWide(10))
		h, err := relation.Build(ds.Tree, ds.Schema, relation.Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Seed the row relation's first column with a partition one row
		// short: every level-2 product over it panics in a worker.
		rel := h.Relations[len(h.Relations)-1]
		parts := make([]map[AttrSet]*partition.Partition, len(h.Relations))
		parts[rel.Index] = map[AttrSet]*partition.Partition{AttrSet(0).Add(0): partition.Single(rel.NRows() - 1)}
		var res *Result
		atProcs(max(2, runtime.GOMAXPROCS(0)), func() {
			run := newRun(context.Background(), h, Options{}, time.Time{})
			run.seed(&warmHierarchy{h: h, parts: parts})
			res, err = run.execute()
		})
		check(t, res, err, string(rel.Pivot))
		if err != nil && !strings.Contains(err.Error(), "product worker") {
			t.Errorf("err = %q, want it to name the product worker", err)
		}
	})
}

// TestUnfiredGovernorIsByteIdentical checks the no-fault determinism
// contract: running under a context that never fires and a generous
// deadline yields a byte-identical result to the plain run.
func TestUnfiredGovernorIsByteIdentical(t *testing.T) {
	h := buildAuction(t)
	plain, err := discoverCold(h, Options{ApproxError: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eng := NewEngine(Options{ApproxError: 0.05})
	governed, err := eng.Discover(ctx, h, time.Now().Add(time.Hour), false)
	if err != nil {
		t.Fatal(err)
	}
	if governed.Stats.Truncated {
		t.Fatal("unfired governor marked the result truncated")
	}
	if got, want := render(governed), render(plain); got != want {
		t.Errorf("governed result differs from plain run\nplain:\n%s\ngoverned:\n%s", want, got)
	}
}

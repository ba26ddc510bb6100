package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"discoverxfd/internal/faultinject"
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
// them) must still return promptly.
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
		for _, parallel := range []bool{false, true} {
			name := "serial"
			if parallel {
				name = "parallel"
			}
			t.Run(name+c.suffix, func(t *testing.T) {
				defer faultinject.CheckGoroutines(t)()
				start := time.Now()
				eng := NewEngine(Options{Parallel: parallel})
				res, err := eng.Discover(context.Background(), h, time.Now().Add(c.deadline), false)
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
	for _, parallel := range []bool{false, true} {
		res, err := NewEngine(Options{Parallel: parallel}).Discover(ctx, h, time.Time{}, false)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("parallel=%v: err = %v, want context.Canceled", parallel, err)
		}
		if res != nil {
			t.Errorf("parallel=%v: cancelled discovery returned a Result", parallel)
		}
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
// in a (possibly parallel) worker becomes an error from Discover with
// the relation named, not a process crash, and leaks no goroutines.
func TestInjectedPanicSurfacesAsError(t *testing.T) {
	h := buildAuction(t)
	for _, parallel := range []bool{false, true} {
		name := "serial"
		if parallel {
			name = "parallel"
		}
		t.Run(name, func(t *testing.T) {
			defer faultinject.CheckGoroutines(t)()
			hook, fired := faultinject.PanicHook("bid")
			res, err := discoverCold(h, Options{
				Parallel:     parallel,
				RelationHook: hook,
			})
			if err == nil {
				t.Fatal("injected panic did not surface as an error")
			}
			if !strings.Contains(err.Error(), "panic") || !strings.Contains(err.Error(), "/site/auction/bid") {
				t.Errorf("err = %q, want it to name the panic and the relation", err)
			}
			if res != nil {
				t.Error("panicked discovery returned a Result alongside the error")
			}
			if fired.Load() == 0 {
				t.Error("panic hook never fired")
			}
		})
	}
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

package core

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"discoverxfd/internal/relation"
	"discoverxfd/internal/schema"
)

// TestEngineWarmLayerReuse pins the engine's warm-layer contract: a
// second run over the same untouched hierarchy replays every
// essential relation from the subtree memo (no lattice traversal, far
// fewer partition misses) and produces identical constraints.
func TestEngineWarmLayerReuse(t *testing.T) {
	h := buildWarehouse(t, relation.Options{})
	eng := NewEngine(Options{})

	cold, err := eng.Discover(context.Background(), h, time.Time{}, true)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := eng.Discover(context.Background(), h, time.Time{}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fdStrings(cold), fdStrings(warm)) {
		t.Fatalf("warm run changed FDs:\ncold %v\nwarm %v", fdStrings(cold), fdStrings(warm))
	}
	if !reflect.DeepEqual(cold.Keys, warm.Keys) {
		t.Fatalf("warm run changed keys: %v vs %v", cold.Keys, warm.Keys)
	}
	if cold.Stats.RelationsReused != 0 {
		t.Errorf("cold run reused %d relations, want 0", cold.Stats.RelationsReused)
	}
	if warm.Stats.RelationsReused != cold.Stats.Relations {
		t.Errorf("warm run reused %d of %d relations", warm.Stats.RelationsReused, cold.Stats.Relations)
	}
	if warm.Stats.NodesVisited != 0 {
		t.Errorf("warm run visited %d lattice nodes, want 0 (full subtree reuse)", warm.Stats.NodesVisited)
	}
	if warm.Stats.PartitionCacheMisses >= cold.Stats.PartitionCacheMisses {
		t.Errorf("warm run should miss less: cold %d misses, warm %d",
			cold.Stats.PartitionCacheMisses, warm.Stats.PartitionCacheMisses)
	}
}

// TestEngineWarmEviction runs more hierarchies through one engine
// than the warm cap retains and checks the oldest entries are
// evicted while the most recent stay warm.
func TestEngineWarmEviction(t *testing.T) {
	eng := NewEngine(Options{})
	hs := make([]*relation.Hierarchy, engineWarmHierarchies+2)
	for i := range hs {
		hs[i] = buildWarehouse(t, relation.Options{})
		if _, err := eng.Discover(context.Background(), hs[i], time.Time{}, true); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(eng.warm); n != engineWarmHierarchies {
		t.Fatalf("warm layer holds %d hierarchies, cap is %d", n, engineWarmHierarchies)
	}
	for i, h := range hs {
		warm := eng.warmFor(h) != nil
		wantWarm := i >= len(hs)-engineWarmHierarchies
		if warm != wantWarm {
			t.Errorf("hierarchy %d: warm=%v, want %v", i, warm, wantWarm)
		}
	}
}

// TestEngineNaiveStaysCold pins the differential-baseline guarantee:
// NaivePartitions runs never publish to (or seed from) the warm
// layer, so naive results stay bit-for-bit reproducible.
func TestEngineNaiveStaysCold(t *testing.T) {
	h := buildWarehouse(t, relation.Options{})
	eng := NewEngine(Options{NaivePartitions: true})
	first, err := eng.Discover(context.Background(), h, time.Time{}, true)
	if err != nil {
		t.Fatal(err)
	}
	if eng.warmFor(h) != nil {
		t.Fatal("naive run published to the warm layer")
	}
	second, err := eng.Discover(context.Background(), h, time.Time{}, true)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.PartitionCacheHits != second.Stats.PartitionCacheHits ||
		first.Stats.PartitionCacheMisses != second.Stats.PartitionCacheMisses {
		t.Errorf("naive runs diverged: hits %d/%d misses %d/%d",
			first.Stats.PartitionCacheHits, second.Stats.PartitionCacheHits,
			first.Stats.PartitionCacheMisses, second.Stats.PartitionCacheMisses)
	}
}

// TestEngineCallBuiltHierarchiesStayCold pins that runs over a
// hierarchy built inside the caller's own call (Discover with warm
// false) neither seed from nor publish to the warm layer, so a
// long-lived engine retains none of them, yet they still count in
// Metrics; warm runs over one hierarchy the caller holds keep seeding.
func TestEngineCallBuiltHierarchiesStayCold(t *testing.T) {
	eng := NewEngine(Options{})
	ctx := context.Background()
	h := buildWarehouse(t, relation.Options{})
	for i := 0; i < 2; i++ {
		if _, err := eng.Discover(ctx, h, time.Time{}, false); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Discover(ctx, buildWarehouse(t, relation.Options{}), time.Time{}, false); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(eng.warm); n != 0 {
		t.Fatalf("warm layer holds %d hierarchies after cold runs, want 0", n)
	}
	if m := eng.Metrics(); m.RunsFinished != 4 || m.WarmSeeded != 0 {
		t.Fatalf("after 4 cold runs: RunsFinished=%d WarmSeeded=%d, want 4 and 0", m.RunsFinished, m.WarmSeeded)
	}

	for i := 0; i < 2; i++ {
		if _, err := eng.Discover(ctx, h, time.Time{}, true); err != nil {
			t.Fatal(err)
		}
	}
	if m := eng.Metrics(); m.WarmSeeded != 1 {
		t.Errorf("two warm runs over one hierarchy: WarmSeeded=%d, want 1", m.WarmSeeded)
	}
	if n := len(eng.warm); n != 1 {
		t.Errorf("warm layer holds %d hierarchies, want 1", n)
	}
}

// TestDeadlineTruncatedRunLeavesWarmLayerClean pins that the per-call
// deadline, the one budget that can differ between runs of one engine
// over one hierarchy, cannot poison the warm layer: a warm run cut
// short at any essential relation must not leave outputs behind that a
// later run without a deadline replays.
func TestDeadlineTruncatedRunLeavesWarmLayerClean(t *testing.T) {
	h := buildAuction(t)
	cold, err := discoverCold(h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.FDs) != 7 || len(cold.Keys) != 15 {
		t.Fatalf("cold run found %d FDs and %d keys, want 7 and 15", len(cold.FDs), len(cold.Keys))
	}
	ctx := context.Background()
	for _, r := range h.Relations {
		if !r.Essential {
			continue
		}
		t.Run(strings.TrimPrefix(string(r.Pivot), "/"), func(t *testing.T) {
			// The hook outsleeps the call's deadline on reaching r, so
			// r's lattice, and everything after it, runs out of budget.
			var deadline time.Time
			eng := NewEngine(Options{RelationHook: func(p schema.Path) {
				if p == r.Pivot && !deadline.IsZero() {
					time.Sleep(time.Until(deadline) + 10*time.Millisecond)
				}
			}})
			deadline = time.Now().Add(200 * time.Millisecond)
			first, err := eng.Discover(ctx, h, deadline, true)
			if err != nil {
				t.Fatal(err)
			}
			if !first.Stats.Truncated {
				t.Fatal("run past its deadline was not truncated")
			}
			deadline = time.Time{}
			second, err := eng.Discover(ctx, h, deadline, true)
			if err != nil {
				t.Fatal(err)
			}
			if second.Stats.Truncated {
				t.Fatalf("run without a deadline truncated: %s", second.Stats.TruncatedReason)
			}
			if len(second.FDs) != len(cold.FDs) || len(second.Keys) != len(cold.Keys) {
				t.Fatalf("run after a truncated warm run replayed %d relations and found %d FDs and %d keys, want %d and %d",
					second.Stats.RelationsReused, len(second.FDs), len(second.Keys), len(cold.FDs), len(cold.Keys))
			}
			requireSameResult(t, "run after a truncated warm run", second, cold)
		})
	}
}

// TestRunPlanRejectsBadIndex guards the Relation.Index invariant the
// per-run slices depend on: a hierarchy whose relations were not laid
// out by relation.Build fails plan with a clear error rather than
// corrupting depth tables.
func TestRunPlanRejectsBadIndex(t *testing.T) {
	h := buildWarehouse(t, relation.Options{})
	h.Relations[1].Index = 7
	defer func() { h.Relations[1].Index = 1 }()
	_, err := discoverCold(h, Options{})
	if err == nil || !strings.Contains(err.Error(), "hierarchies must come from relation.Build") {
		t.Fatalf("expected index-invariant error, got %v", err)
	}
}

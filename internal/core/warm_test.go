package core

import (
	"context"
	"fmt"
	"maps"
	"reflect"
	"sync"
	"testing"
	"time"

	"discoverxfd/internal/datatree"
	"discoverxfd/internal/partition"
	"discoverxfd/internal/relation"
	"discoverxfd/internal/schema"
)

// TestWarmSeedReadsMapsInPlace pins that seeding does not copy the
// warm layer: after an idle warm repeat over warehouse, which replays
// every relation and writes no store, each relation's published map
// is the very map the run was seeded with.
func TestWarmSeedReadsMapsInPlace(t *testing.T) {
	h := buildWarehouse(t, relation.Options{})
	eng := NewEngine(Options{})
	ctx := context.Background()
	if _, err := eng.Discover(ctx, h, time.Time{}, true); err != nil {
		t.Fatal(err)
	}
	seeded := eng.warmFor(h)
	again, err := eng.Discover(ctx, h, time.Time{}, true)
	if err != nil {
		t.Fatal(err)
	}
	if again.Stats.RelationsReused != again.Stats.Relations {
		t.Fatalf("idle repeat reused %d of %d relations", again.Stats.RelationsReused, again.Stats.Relations)
	}
	published := eng.warmFor(h)
	if published == seeded {
		t.Fatal("the idle repeat published no entry")
	}
	n := 0
	for i, m := range seeded.parts {
		if m == nil {
			continue
		}
		n++
		if got := published.parts[i]; reflect.ValueOf(got).UnsafePointer() != reflect.ValueOf(m).UnsafePointer() {
			t.Errorf("%s: published a different map than the one seeded", h.Relations[i].Pivot)
		}
	}
	if n == 0 {
		t.Fatal("the warm entry holds no partition map")
	}
}

// TestWarmMapsSharedAcrossRuns starts several runs at once from one
// patched warm entry through the internal seed path (racing Discover
// calls would mostly replay a sibling's fresh publish instead). Each
// run reads the entry's maps in place and must copy a map before
// writing it: under -race no access may conflict, every result must
// equal a cold run's, and the entry's maps must end as they started.
func TestWarmMapsSharedAcrossRuns(t *testing.T) {
	h, tree := buildWarehouseTree(t, relation.Options{})
	eng := NewEngine(Options{ApproxError: 0.1})
	ctx := context.Background()
	if _, err := eng.Discover(ctx, h, time.Time{}, true); err != nil {
		t.Fatal(err)
	}
	books := h.ByPivot("/warehouse/state/store/book")
	if _, err := eng.ApplyUpdate(h, []relation.Update{
		{Op: relation.OpSet, Class: books.Pivot, Key: books.Keys[0], Attr: "./price", Value: "55"},
		{Op: relation.OpSet, Class: books.Pivot, Key: books.Keys[1], Attr: "./title", Value: "Renamed"},
	}); err != nil {
		t.Fatal(err)
	}
	w := eng.warmFor(h)
	if w == nil {
		t.Fatal("no warm entry after the update")
	}
	before := make([]map[AttrSet]*partition.Partition, len(w.parts))
	for i, m := range w.parts {
		before[i] = maps.Clone(m)
	}
	coldH, err := relation.Build(tree, h.Schema, relation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := discoverCold(coldH, Options{ApproxError: 0.1})
	if err != nil {
		t.Fatal(err)
	}

	const runs = 4
	results := make([]*Result, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.RLock()
			defer h.RUnlock()
			run := newRun(ctx, h, Options{ApproxError: 0.1}, time.Time{})
			run.seed(w)
			results[i], errs[i] = run.execute()
		}()
	}
	wg.Wait()
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if res.Stats.RelationsReused == 0 || res.Stats.NodesVisited == 0 {
			t.Errorf("run %d reused %d relations and visited %d nodes; want the touched relation traversed and the rest replayed",
				i, res.Stats.RelationsReused, res.Stats.NodesVisited)
		}
		requireSameResult(t, fmt.Sprintf("run %d", i), res, cold)
		if !reflect.DeepEqual(fdStrings(&Result{FDs: res.ApproxFDs}), fdStrings(&Result{FDs: cold.ApproxFDs})) {
			t.Errorf("run %d: approximate FDs differ from the cold run's", i)
		}
	}
	for i, m := range w.parts {
		if !maps.Equal(m, before[i]) {
			t.Errorf("%s: a seeded run wrote the shared warm map", h.Relations[i].Pivot)
		}
	}
}

// TestWarmEntryStaleAfterOutsideUpdate pins that a warm entry is used
// only while it reflects the hierarchy. An update through another
// engine patches the shared entry, and one made by Apply directly
// empties the slot, so the engine's own next update has no stale entry
// to patch back into use, and its next warm run none to replay: every
// warm run still equals a cold one.
func TestWarmEntryStaleAfterOutsideUpdate(t *testing.T) {
	routes := map[string]func(h *relation.Hierarchy, ops []relation.Update) error{
		"other engine": func(h *relation.Hierarchy, ops []relation.Update) error {
			_, err := NewEngine(Options{}).ApplyUpdate(h, ops)
			return err
		},
		"direct Apply": func(h *relation.Hierarchy, ops []relation.Update) error {
			h.Lock()
			defer h.Unlock()
			_, err := h.Apply(ops)
			return err
		},
	}
	for _, name := range []string{"other engine", "direct Apply"} {
		t.Run(name, func(t *testing.T) {
			h, tree := buildWarehouseTree(t, relation.Options{})
			eng := NewEngine(Options{})
			ctx := context.Background()
			for i := 0; i < 2; i++ {
				if _, err := eng.Discover(ctx, h, time.Time{}, true); err != nil {
					t.Fatal(err)
				}
			}
			books := h.ByPivot("/warehouse/state/store/book")
			prices := func(value func(i int) string) []relation.Update {
				var ops []relation.Update
				for i, key := range books.Keys {
					ops = append(ops, relation.Update{Op: relation.OpSet, Class: books.Pivot, Key: key, Attr: "./price", Value: value(i)})
				}
				return ops
			}
			if err := routes[name](h, prices(func(int) string { return "1" })); err != nil {
				t.Fatal(err)
			}
			stores := h.ByPivot("/warehouse/state/store")
			if _, err := eng.ApplyUpdate(h, []relation.Update{
				{Op: relation.OpSet, Class: stores.Pivot, Key: stores.Keys[0], Attr: "./contact/name", Value: "Renamed"},
			}); err != nil {
				t.Fatal(err)
			}
			requireWarmMatchesCold(t, "after an outside update and the engine's own", eng, h, tree)

			if err := routes[name](h, prices(func(i int) string { return fmt.Sprint(10 + i) })); err != nil {
				t.Fatal(err)
			}
			requireWarmMatchesCold(t, "after an outside update", eng, h, tree)
		})
	}
}

// requireWarmMatchesCold runs eng warm over h and requires the result
// a cold engine finds over a fresh build of tree.
func requireWarmMatchesCold(t *testing.T, label string, eng *Engine, h *relation.Hierarchy, tree *datatree.Tree) {
	t.Helper()
	warm, err := eng.Discover(context.Background(), h, time.Time{}, true)
	if err != nil {
		t.Fatal(err)
	}
	coldH, err := relation.Build(tree, h.Schema, relation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := discoverCold(coldH, Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, fmt.Sprintf("%s (%d relations reused)", label, warm.Stats.RelationsReused), warm, cold)
}

// TestReuseAcrossRootNullProfile guards the one-walk reuse check: the
// synthetic root has no output slot, so when an update fills its
// missing optional leaf, only the changed null boundaries below it
// can stop the next run from replaying the whole tree.
func TestReuseAcrossRootNullProfile(t *testing.T) {
	s, err := schema.Parse("doc: Rcd\n  note: str\n  t: SetOf Rcd\n    a: str\n    b: str\n    u: SetOf Rcd\n      c: str\n")
	if err != nil {
		t.Fatal(err)
	}
	tree, err := datatree.ParseXMLString(`<doc>
  <t><a>1</a><b>2</b><u><c>x</c></u><u><c>y</c></u></t>
  <t><a>1</a><b>3</b><u><c>x</c></u></t>
  <t><a>2</a><b>3</b><u><c>z</c></u><u><c>x</c></u></t>
</doc>`)
	if err != nil {
		t.Fatal(err)
	}
	h, err := relation.Build(tree, s, relation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(Options{})
	if _, err := eng.Discover(context.Background(), h, time.Time{}, true); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ApplyUpdate(h, []relation.Update{
		{Op: relation.OpSet, Class: h.Root.Pivot, Key: h.Root.Keys[0], Attr: "./note", Value: "n"},
	}); err != nil {
		t.Fatal(err)
	}
	warm, err := eng.Discover(context.Background(), h, time.Time{}, true)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.RelationsReused != 0 {
		t.Errorf("reused %d of %d relations across a changed root null profile, want 0",
			warm.Stats.RelationsReused, warm.Stats.Relations)
	}
	coldH, err := relation.Build(tree, s, relation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := discoverCold(coldH, Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "after filling the root leaf", warm, cold)
}

// TestWarmEntryFollowsHierarchy pins that the warm entry belongs to
// the hierarchy and is keyed by the options that decide what a run
// finds. A second engine with equal options and its own RelationHook
// reuses every relation the first engine's run left, and its hook
// still runs on each one. An engine with other options (MaxLHS 1)
// ignores the entry: it runs cold, finds what a cold run finds, and
// leaves its own entry in place of the first.
func TestWarmEntryFollowsHierarchy(t *testing.T) {
	h := buildWarehouse(t, relation.Options{})
	ctx := context.Background()
	first, err := NewEngine(Options{}).Discover(ctx, h, time.Time{}, true)
	if err != nil {
		t.Fatal(err)
	}

	var hooked []schema.Path
	same := NewEngine(Options{RelationHook: func(p schema.Path) { hooked = append(hooked, p) }})
	again, err := same.Discover(ctx, h, time.Time{}, true)
	if err != nil {
		t.Fatal(err)
	}
	if again.Stats.Relations == 0 || again.Stats.RelationsReused != again.Stats.Relations {
		t.Errorf("an engine with equal options reused %d of %d relations, want all",
			again.Stats.RelationsReused, again.Stats.Relations)
	}
	if m := same.Metrics(); m.WarmSeeded != 1 {
		t.Errorf("an engine with equal options: WarmSeeded = %d, want 1", m.WarmSeeded)
	}
	if len(hooked) != again.Stats.Relations {
		t.Errorf("the second engine's hook ran on %d of %d relations: %v", len(hooked), again.Stats.Relations, hooked)
	}
	requireSameResult(t, "an engine with equal options", again, first)

	other := NewEngine(Options{MaxLHS: 1})
	got, err := other.Discover(ctx, h, time.Time{}, true)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.RelationsReused != 0 {
		t.Errorf("an engine with MaxLHS 1 reused %d relations of an entry built without it, want 0", got.Stats.RelationsReused)
	}
	if m := other.Metrics(); m.WarmSeeded != 0 {
		t.Errorf("an engine with MaxLHS 1: WarmSeeded = %d, want 0", m.WarmSeeded)
	}
	cold, err := discoverCold(h, Options{MaxLHS: 1})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "an engine with MaxLHS 1", got, cold)
	if other.warmFor(h) == nil || same.warmFor(h) != nil {
		t.Error("the MaxLHS 1 run did not replace the hierarchy's warm entry with its own")
	}
}

// TestWarmEntryConcurrentEngines runs warm discovery over one
// hierarchy from several goroutines at once, each on its own engine
// under the same options, so runs seed from and publish to the
// hierarchy's one entry concurrently. Under -race no access may
// conflict, every result must equal a cold run's, and each engine's
// repeats must seed from the entry.
func TestWarmEntryConcurrentEngines(t *testing.T) {
	h := buildWarehouse(t, relation.Options{})
	opts := Options{ApproxError: 0.1}
	cold, err := discoverCold(h, opts)
	if err != nil {
		t.Fatal(err)
	}

	const engines, rounds = 4, 3
	results := make([][]*Result, engines)
	errs := make([]error, engines)
	seeded := make([]int64, engines)
	var wg sync.WaitGroup
	for i := 0; i < engines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := NewEngine(opts)
			for r := 0; r < rounds; r++ {
				res, err := eng.Discover(context.Background(), h, time.Time{}, true)
				if err != nil {
					errs[i] = err
					return
				}
				results[i] = append(results[i], res)
			}
			seeded[i] = eng.Metrics().WarmSeeded
		}()
	}
	wg.Wait()
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("engine %d: %v", i, errs[i])
		}
		for r, res := range results[i] {
			requireSameResult(t, fmt.Sprintf("engine %d round %d", i, r), res, cold)
			if !reflect.DeepEqual(fdStrings(&Result{FDs: res.ApproxFDs}), fdStrings(&Result{FDs: cold.ApproxFDs})) {
				t.Errorf("engine %d round %d: approximate FDs differ from the cold run's", i, r)
			}
		}
		if seeded[i] < rounds-1 {
			t.Errorf("engine %d seeded %d of its %d runs, want at least %d", i, seeded[i], rounds, rounds-1)
		}
	}
}

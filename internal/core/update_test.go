package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"discoverxfd/internal/datatree"
	"discoverxfd/internal/partition"
	"discoverxfd/internal/relation"
	"discoverxfd/internal/schema"
	"discoverxfd/internal/trace"
)

// buildWarehouseTree is buildWarehouse keeping the tree, which the
// differential tests rebuild cold after mutations.
func buildWarehouseTree(t *testing.T, opts relation.Options) (*relation.Hierarchy, *datatree.Tree) {
	t.Helper()
	tree, err := datatree.ParseXMLString(warehouseXML)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	s, err := datatree.InferSchema(tree)
	if err != nil {
		t.Fatalf("infer: %v", err)
	}
	h, err := relation.Build(tree, s, opts)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return h, tree
}

// requireSameResult compares two discovery results up to Stats (cache
// counters legitimately differ warm vs cold).
func requireSameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(fdStrings(got), fdStrings(want)) {
		t.Fatalf("%s: FDs differ:\ngot  %v\nwant %v", label, fdStrings(got), fdStrings(want))
	}
	if !reflect.DeepEqual(keyStrings(got), keyStrings(want)) {
		t.Fatalf("%s: keys differ:\ngot  %v\nwant %v", label, keyStrings(got), keyStrings(want))
	}
	if !reflect.DeepEqual(got.Redundancies, want.Redundancies) {
		t.Fatalf("%s: redundancies differ:\ngot  %v\nwant %v", label, got.Redundancies, want.Redundancies)
	}
}

// TestApplyUpdateIncrementalMatchesCold pins the tentpole contract:
// discovery after ApplyUpdate equals a cold run over a fresh build of
// the mutated document, while reusing warm partitions (the patched
// entry survives, so the incremental run misses less than a cold one).
func TestApplyUpdateIncrementalMatchesCold(t *testing.T) {
	h, tree := buildWarehouseTree(t, relation.Options{})
	eng := NewEngine(Options{})
	if _, err := eng.Discover(context.Background(), h, time.Time{}, true); err != nil {
		t.Fatal(err)
	}

	books := h.ByPivot("/warehouse/state/store/book")
	stores := h.ByPivot("/warehouse/state/store")
	cs, err := eng.ApplyUpdate(h, []relation.Update{
		{Op: relation.OpSet, Class: books.Pivot, Key: books.Keys[0], Attr: "./price", Value: "55"},
		{Op: relation.OpInsert, Class: books.Pivot, Parent: stores.Keys[0],
			Values: map[schema.RelPath]string{"./ISBN": "555", "./title": "New", "./price": "70"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cs.Ops() != 2 {
		t.Fatalf("changeset ops = %d, want 2", cs.Ops())
	}

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
	requireSameResult(t, "after update", warm, cold)
	if warm.Stats.PartitionCacheMisses >= cold.Stats.PartitionCacheMisses {
		t.Errorf("incremental run should start warm: %d misses vs cold %d",
			warm.Stats.PartitionCacheMisses, cold.Stats.PartitionCacheMisses)
	}
	m := eng.Metrics()
	if m.UpdatesApplied != 1 || m.UpdateOps != 2 {
		t.Errorf("metrics: applied=%d ops=%d, want 1/2", m.UpdatesApplied, m.UpdateOps)
	}
	if m.PartitionsPatched == 0 || m.PartitionsKept == 0 {
		t.Errorf("metrics: patched=%d kept=%d, want both > 0", m.PartitionsPatched, m.PartitionsKept)
	}
}

// TestApplyUpdateRandomizedDifferential drives random update batches
// through a shared engine, comparing every post-update discovery to a
// cold engine over a cold rebuild of the mutated tree.
func TestApplyUpdateRandomizedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 8; trial++ {
		h, tree := buildWarehouseTree(t, relation.Options{})
		eng := NewEngine(Options{})
		if _, err := eng.Discover(context.Background(), h, time.Time{}, true); err != nil {
			t.Fatal(err)
		}
		for batch := 0; batch < 4; batch++ {
			ops := randomWarehouseOps(rng, h)
			if len(ops) == 0 {
				continue
			}
			if _, err := eng.ApplyUpdate(h, ops); err != nil {
				t.Fatalf("trial %d batch %d: apply: %v", trial, batch, err)
			}
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
			requireSameResult(t, fmt.Sprintf("trial %d batch %d", trial, batch), warm, cold)
		}
	}
}

// TestApplyUpdateWarmPartitionsMatchFresh checks the warm layer
// itself, not only the Results computed from it: after every
// ApplyUpdate batch (sets, inserts, deletes and a cascading delete,
// so relations get resized) and after the warm run that follows it,
// every partition in h's warm entry equals the partition a fresh
// cache computes for the same attribute set over the mutated
// hierarchy, group for group and in order.
func TestApplyUpdateWarmPartitionsMatchFresh(t *testing.T) {
	h, _ := buildWarehouseTree(t, relation.Options{})
	eng := NewEngine(Options{})
	if _, err := eng.Discover(context.Background(), h, time.Time{}, true); err != nil {
		t.Fatal(err)
	}
	books := h.ByPivot("/warehouse/state/store/book")
	stores := h.ByPivot("/warehouse/state/store")
	batches := [][]relation.Update{
		{{Op: relation.OpSet, Class: books.Pivot, Key: books.Keys[0], Attr: "./price", Value: "55"},
			{Op: relation.OpSet, Class: books.Pivot, Key: books.Keys[1], Attr: "./title", Value: "Renamed"}},
		{{Op: relation.OpInsert, Class: books.Pivot, Parent: stores.Keys[0],
			Values: map[schema.RelPath]string{"./ISBN": "555", "./title": "New", "./price": "70"}}},
		{{Op: relation.OpDelete, Class: books.Pivot, Key: books.Keys[2]}},
		{{Op: relation.OpDelete, Class: stores.Pivot, Key: stores.Keys[0]}},
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < len(batches)+6; i++ {
		var ops []relation.Update
		if i < len(batches) {
			ops = batches[i]
		} else if ops = randomWarehouseOps(rng, h); len(ops) == 0 {
			continue
		}
		before := eng.Metrics().PartitionsPatched
		cs, err := eng.ApplyUpdate(h, ops)
		if err != nil {
			t.Fatalf("batch %d: apply: %v", i, err)
		}
		if i < len(batches) && eng.Metrics().PartitionsPatched == before {
			t.Fatalf("batch %d rebuilt no partition", i)
		}
		if i >= 1 && i < len(batches) && !cs.Rels[books.Index].Resized {
			t.Fatalf("batch %d did not resize %s", i, books.Pivot)
		}
		requireWarmMatchesFresh(t, fmt.Sprintf("batch %d applied", i), eng, h)
		if _, err := eng.Discover(context.Background(), h, time.Time{}, true); err != nil {
			t.Fatal(err)
		}
		requireWarmMatchesFresh(t, fmt.Sprintf("batch %d rediscovered", i), eng, h)
	}
}

// requireWarmMatchesFresh requires every partition in h's warm entry
// to equal, group for group and in order, the partition a fresh cache
// computes for the same attribute set over h as it stands now.
func requireWarmMatchesFresh(t *testing.T, label string, eng *Engine, h *relation.Hierarchy) {
	t.Helper()
	warm := eng.warmFor(h)
	if warm == nil {
		t.Fatalf("%s: no warm entry", label)
	}
	fresh := newPartitionCache(len(h.Relations), 0)
	for i, parts := range warm.parts {
		if parts == nil {
			continue
		}
		rel := h.Relations[i]
		rp := fresh.store(rel)
		sc := partition.NewScratch(rel.NRows())
		for a, got := range parts {
			want := fresh.partitionOf(rp, a, sc, false, nil)
			if got.NRows != want.NRows || !reflect.DeepEqual(groupsOf(got), groupsOf(want)) {
				t.Fatalf("%s: %s %v: warm partition over %d rows %v, fresh over %d rows %v",
					label, rel.Pivot, a.Attrs(), got.NRows, groupsOf(got), want.NRows, groupsOf(want))
			}
		}
	}
}

// groupsOf lists p's groups in stored order.
func groupsOf(p *partition.Partition) [][]int32 {
	out := make([][]int32, p.Size())
	for i := range out {
		out[i] = p.Group(i)
	}
	return out
}

// randomLeafValue emits a value conforming to the attribute's
// declared simple type: Apply validates writes the way cold builds
// validate documents, so Int-typed leaves must get ints.
func randomLeafValue(rng *rand.Rand, h *relation.Hierarchy, a relation.Attr) string {
	if h.Schema != nil {
		if el, err := h.Schema.Resolve(a.Path); err == nil && el.Payload != nil {
			switch el.Payload.Kind {
			case schema.Int:
				return strconv.Itoa(rng.Intn(200))
			case schema.Float:
				return fmt.Sprintf("%d.%d", rng.Intn(20), rng.Intn(10))
			}
		}
	}
	return fmt.Sprintf("u%d", rng.Intn(4))
}

// randomWarehouseOps emits a small batch of valid random updates (a
// delete, whose cascade could invalidate later targets, ends the
// batch).
func randomWarehouseOps(rng *rand.Rand, h *relation.Hierarchy) []relation.Update {
	var essential []*relation.Relation
	for _, r := range h.Relations {
		if r.Essential {
			essential = append(essential, r)
		}
	}
	var ops []relation.Update
	used := make(map[int]bool)
	for tries := 0; len(ops) < 1+rng.Intn(3) && tries < 20; tries++ {
		r := essential[rng.Intn(len(essential))]
		switch rng.Intn(4) {
		case 0, 1: // set
			var leaves []relation.Attr
			for _, a := range r.Attrs {
				if a.Kind == relation.Leaf {
					leaves = append(leaves, a)
				}
			}
			if r.NRows() == 0 || len(leaves) == 0 {
				continue
			}
			key := r.Keys[rng.Intn(r.NRows())]
			if used[key] {
				continue
			}
			used[key] = true
			a := leaves[rng.Intn(len(leaves))]
			ops = append(ops, relation.Update{Op: relation.OpSet, Class: r.Pivot, Key: key,
				Attr: a.Rel, Value: randomLeafValue(rng, h, a)})
		case 2: // insert
			parent := 0
			if r.Parent.Essential {
				if r.Parent.NRows() == 0 {
					continue
				}
				parent = r.Parent.Keys[rng.Intn(r.Parent.NRows())]
				if used[parent] {
					continue
				}
			}
			vals := make(map[schema.RelPath]string)
			for _, a := range r.Attrs {
				if a.Kind == relation.Leaf && rng.Intn(2) == 0 {
					vals[a.Rel] = randomLeafValue(rng, h, a)
				}
			}
			ops = append(ops, relation.Update{Op: relation.OpInsert, Class: r.Pivot, Parent: parent, Values: vals})
		default: // delete ends the batch
			if r.NRows() == 0 {
				continue
			}
			key := r.Keys[rng.Intn(r.NRows())]
			if used[key] {
				continue
			}
			ops = append(ops, relation.Update{Op: relation.OpDelete, Class: r.Pivot, Key: key})
			return ops
		}
	}
	return ops
}

// TestApplyUpdateConcurrentWithDiscover exercises the locking
// contract under the race detector: discoveries and updates running
// concurrently must serialize without torn reads, and every discovery
// must match a cold run over the document state it observed. (The
// cold comparison is omitted here — states are racing by design —
// the differential tests above pin correctness; this test pins memory
// safety.)
func TestApplyUpdateConcurrentWithDiscover(t *testing.T) {
	h, _ := buildWarehouseTree(t, relation.Options{})
	eng := NewEngine(Options{})
	books := h.ByPivot("/warehouse/state/store/book")
	if _, err := eng.Discover(context.Background(), h, time.Time{}, true); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, err := eng.Discover(context.Background(), h, time.Time{}, true); err != nil {
					t.Errorf("discover: %v", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			// Addressing under the writer lock: Keys may move between
			// Apply batches, so look the key up inside ApplyUpdate's
			// lock via a fresh read each iteration. Using row 0's key
			// read without the lock would race; take RLock explicitly.
			h.RLock()
			key := books.Keys[0]
			h.RUnlock()
			if _, err := eng.ApplyUpdate(h, []relation.Update{
				{Op: relation.OpSet, Class: books.Pivot, Key: key, Attr: "./price", Value: fmt.Sprintf("%d", 100+i)},
			}); err != nil {
				t.Errorf("apply: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestApplyUpdateFailedBatchDropsWarm pins the failure contract: a
// rejected batch may leave earlier ops applied, so the engine must
// drop the hierarchy's warm entry rather than serve stale partitions.
func TestApplyUpdateFailedBatchDropsWarm(t *testing.T) {
	h, _ := buildWarehouseTree(t, relation.Options{})
	eng := NewEngine(Options{})
	books := h.ByPivot("/warehouse/state/store/book")
	if _, err := eng.Discover(context.Background(), h, time.Time{}, true); err != nil {
		t.Fatal(err)
	}
	if eng.warmFor(h) == nil {
		t.Fatal("no warm entry after discovery")
	}
	_, err := eng.ApplyUpdate(h, []relation.Update{
		{Op: relation.OpSet, Class: books.Pivot, Key: books.Keys[0], Attr: "./price", Value: "1"},
		{Op: relation.OpSet, Class: books.Pivot, Key: 99999, Attr: "./price", Value: "2"},
	})
	if err == nil {
		t.Fatal("batch with a bad key succeeded")
	}
	if eng.warmFor(h) != nil {
		t.Fatal("warm entry survived a failed batch")
	}
	if m := eng.Metrics(); m.UpdatesFailed != 1 {
		t.Fatalf("UpdatesFailed = %d, want 1", m.UpdatesFailed)
	}
}

// captureTracer retains emitted events (copied, per the Tracer
// contract).
type captureTracer struct {
	mu  sync.Mutex
	evs []trace.Event
}

func (c *captureTracer) Emit(ev *trace.Event) {
	c.mu.Lock()
	c.evs = append(c.evs, *ev)
	c.mu.Unlock()
}

// TestApplyUpdateTraceEvents pins the update span schema: one
// update_apply event per batch, preceded by a partition_patch event
// per warm relation rewritten, with dirty counts populated.
func TestApplyUpdateTraceEvents(t *testing.T) {
	h, _ := buildWarehouseTree(t, relation.Options{})
	tr := &captureTracer{}
	eng := NewEngine(Options{Tracer: tr})
	books := h.ByPivot("/warehouse/state/store/book")
	if _, err := eng.Discover(context.Background(), h, time.Time{}, true); err != nil {
		t.Fatal(err)
	}
	tr.mu.Lock()
	tr.evs = nil
	tr.mu.Unlock()
	if _, err := eng.ApplyUpdate(h, []relation.Update{
		{Op: relation.OpSet, Class: books.Pivot, Key: books.Keys[0], Attr: "./price", Value: "99"},
	}); err != nil {
		t.Fatal(err)
	}
	var applies, patches int
	for _, ev := range tr.evs {
		switch ev.Kind {
		case trace.KindUpdateApply:
			applies++
			if ev.Ops != 1 || ev.Relations == 0 {
				t.Errorf("update_apply event: ops=%d relations=%d", ev.Ops, ev.Relations)
			}
		case trace.KindPartitionPatch:
			patches++
			if ev.Relation == "" || ev.Kept+ev.Patched+ev.Dropped == 0 {
				t.Errorf("partition_patch event missing counts: %+v", ev)
			}
		}
	}
	if applies != 1 {
		t.Fatalf("update_apply events = %d, want 1", applies)
	}
	if patches == 0 {
		t.Fatal("no partition_patch events for a warm hierarchy")
	}
}

// forestXML is a two-table document whose tables share no data: a
// localized update to one table leaves the other's whole subtree
// cone-clean, so the next run replays it from the subtree memo.
const forestXML = `<forest>
  <t1>
    <row><a>x1</a><b>y1</b></row>
    <row><a>x2</a><b>y2</b></row>
    <row><a>x1</a><b>y1</b></row>
    <row><a>x3</a><b>y3</b></row>
  </t1>
  <t2>
    <row><c>p1</c><d>q1</d></row>
    <row><c>p2</c><d>q2</d></row>
    <row><c>p1</c><d>q1</d></row>
    <row><c>p3</c><d>q3</d></row>
  </t2>
</forest>`

// TestSubtreeReuseAfterUpdate pins the dirty-region contract of the
// subtree memo: after a value update confined to one table, discovery
// re-traverses only that table's relation, replays every untouched
// sibling subtree, and still returns exactly the cold-run result.
func TestSubtreeReuseAfterUpdate(t *testing.T) {
	tree, err := datatree.ParseXMLString(forestXML)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	s, err := datatree.InferSchema(tree)
	if err != nil {
		t.Fatalf("infer: %v", err)
	}
	h, err := relation.Build(tree, s, relation.Options{})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	eng := NewEngine(Options{})
	cold, err := eng.Discover(context.Background(), h, time.Time{}, true)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.RelationsReused != 0 {
		t.Fatalf("cold run reused %d relations", cold.Stats.RelationsReused)
	}

	t1 := h.ByPivot("/forest/t1/row")
	if _, err := eng.ApplyUpdate(h, []relation.Update{
		{Op: relation.OpSet, Class: t1.Pivot, Key: t1.Keys[1], Attr: "./a", Value: "x1"},
	}); err != nil {
		t.Fatal(err)
	}
	incr, err := eng.Discover(context.Background(), h, time.Time{}, true)
	if err != nil {
		t.Fatal(err)
	}
	if incr.Stats.Relations != cold.Stats.Relations {
		t.Fatalf("incremental run covered %d relations, cold %d", incr.Stats.Relations, cold.Stats.Relations)
	}
	if got, want := incr.Stats.RelationsReused, cold.Stats.Relations-1; got != want {
		t.Errorf("RelationsReused = %d, want %d (all but the mutated table)", got, want)
	}
	if incr.Stats.NodesVisited == 0 {
		t.Error("mutated table's lattice was not re-traversed")
	}

	h2, err := relation.Build(tree, s, relation.Options{})
	if err != nil {
		t.Fatalf("cold rebuild: %v", err)
	}
	fresh, err := discoverCold(h2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "incremental vs cold", incr, fresh)

	// A repeat with no intervening update replays everything.
	again, err := eng.Discover(context.Background(), h, time.Time{}, true)
	if err != nil {
		t.Fatal(err)
	}
	if again.Stats.RelationsReused != cold.Stats.Relations || again.Stats.NodesVisited != 0 {
		t.Errorf("idle repeat: reused %d relations, visited %d nodes; want %d and 0",
			again.Stats.RelationsReused, again.Stats.NodesVisited, cold.Stats.Relations)
	}
	requireSameResult(t, "idle repeat vs cold", again, fresh)
}

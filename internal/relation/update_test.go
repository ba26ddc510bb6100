package relation

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"discoverxfd/internal/datatree"
	"discoverxfd/internal/schema"
)

// requireEquivalent asserts that two hierarchies over the same tree
// represent the same data: same relations, same tuple keys, and per
// attribute the same code-equality structure (codes themselves may
// differ — incremental interning assigns them in a different order
// than a cold build — but which rows share a code, and which rows are
// null, must agree). That is exactly the property discovery results
// depend on.
func requireEquivalent(t *testing.T, got, want *Hierarchy) {
	t.Helper()
	if len(got.Relations) != len(want.Relations) {
		t.Fatalf("relation count: got %d, want %d", len(got.Relations), len(want.Relations))
	}
	for _, gr := range got.Relations {
		wr := want.ByPivot(gr.Pivot)
		if wr == nil {
			t.Fatalf("relation %s missing from cold rebuild", gr.Pivot)
		}
		if gr.NRows() != wr.NRows() {
			t.Fatalf("%s: got %d rows, want %d", gr.Pivot, gr.NRows(), wr.NRows())
		}
		// Align rows by pivot key.
		wRow := make(map[int]int, wr.NRows())
		for ti, k := range wr.Keys {
			wRow[k] = ti
		}
		align := make([]int, gr.NRows())
		for ti, k := range gr.Keys {
			wi, ok := wRow[k]
			if !ok {
				t.Fatalf("%s: key %d not in cold rebuild", gr.Pivot, k)
			}
			align[ti] = wi
		}
		if gr.NAttrs() != wr.NAttrs() {
			t.Fatalf("%s: got %d attrs, want %d", gr.Pivot, gr.NAttrs(), wr.NAttrs())
		}
		for ai := range gr.Attrs {
			fwd := make(map[int64]int64) // got code -> want code
			rev := make(map[int64]int64)
			for ti := range gr.Keys {
				g, w := gr.Cols[ai][ti], wr.Cols[ai][align[ti]]
				if IsNull(g) != IsNull(w) {
					t.Fatalf("%s.%s key %d: nullity mismatch (got %d, want %d)",
						gr.Pivot, gr.Attrs[ai].Name(), gr.Keys[ti], g, w)
				}
				if IsNull(g) {
					continue
				}
				if prev, ok := fwd[g]; ok && prev != w {
					t.Fatalf("%s.%s: got code %d maps to both want %d and %d",
						gr.Pivot, gr.Attrs[ai].Name(), g, prev, w)
				}
				if prev, ok := rev[w]; ok && prev != g {
					t.Fatalf("%s.%s: want code %d maps to both got %d and %d",
						gr.Pivot, gr.Attrs[ai].Name(), w, prev, g)
				}
				fwd[g], rev[w] = w, g
			}
		}
	}
}

// snapshotCols deep-copies every relation's columns, for checking the
// warm-layer contract against the pre-update state.
func snapshotCols(h *Hierarchy) [][][]int64 {
	out := make([][][]int64, len(h.Relations))
	for i, r := range h.Relations {
		cols := make([][]int64, len(r.Cols))
		for ai, c := range r.Cols {
			cols[ai] = append([]int64(nil), c...)
		}
		out[i] = cols
	}
	return out
}

// requireWarmContract asserts what the engine's warm layer relies on
// after a Changeset: every column it does not mark dirty kept its
// codes bit for bit (so the column's warm partitions stay valid, and
// an untouched relation was not resized), and every non-null code lies
// in [1, ColBound) — the precondition of FromDense's counting build,
// which otherwise silently falls back to hashing when a dirty column
// is rebuilt.
func requireWarmContract(t *testing.T, h *Hierarchy, before [][][]int64, cs *Changeset) {
	t.Helper()
	for i, r := range h.Relations {
		if len(r.ColBound) != r.NAttrs() {
			t.Fatalf("%s: %d column bounds for %d attributes", r.Pivot, len(r.ColBound), r.NAttrs())
		}
		for ai, col := range r.Cols {
			for ti, c := range col {
				if !IsNull(c) && (c < 1 || c >= r.ColBound[ai]) {
					t.Fatalf("%s.%s row %d: code %d outside [1, %d)", r.Pivot, r.Attrs[ai].Name(), ti, c, r.ColBound[ai])
				}
			}
			if !cs.Rels[i].DirtyAttr(ai) && !slices.Equal(before[i][ai], col) {
				t.Fatalf("%s.%s: column changed but not marked dirty\nbefore: %v\nafter:  %v",
					r.Pivot, r.Attrs[ai].Name(), before[i][ai], col)
			}
		}
	}
}

// applyAndCheck applies the batch, then verifies the warm-layer
// contract and equivalence with a cold rebuild of the mutated tree.
func applyAndCheck(t *testing.T, h *Hierarchy, tr *datatree.Tree, opts Options, ops []Update) *Changeset {
	t.Helper()
	before := snapshotCols(h)
	cs, err := h.Apply(ops)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	requireWarmContract(t, h, before, cs)
	cold, err := Build(tr, h.Schema, opts)
	if err != nil {
		t.Fatalf("cold rebuild: %v", err)
	}
	requireEquivalent(t, h, cold)
	return cs
}

func buildWHTree(t *testing.T, opts Options) (*Hierarchy, *datatree.Tree) {
	t.Helper()
	tr, err := datatree.ParseXMLString(warehouseXML)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	h, err := Build(tr, warehouseSchema, opts)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return h, tr
}

const (
	bookClass  = schema.Path("/warehouse/state/store/book")
	storeClass = schema.Path("/warehouse/state/store")
	stateClass = schema.Path("/warehouse/state")
)

func TestApplySet(t *testing.T) {
	h, tr := buildWHTree(t, Options{})
	books := h.ByPivot(bookClass)

	t.Run("value change", func(t *testing.T) {
		cs := applyAndCheck(t, h, tr, Options{}, []Update{
			{Op: OpSet, Class: bookClass, Key: books.Keys[0], Attr: "./price", Value: "35"},
		})
		rc := cs.Rels[books.Index]
		if rc == nil || !rc.DirtyAttr(books.AttrIndex("./price")) {
			t.Fatalf("price column not marked dirty: %+v", rc)
		}
		if rc.DirtyAttr(books.AttrIndex("./title")) {
			t.Fatalf("title column spuriously dirty")
		}
	})
	t.Run("no-op change is clean", func(t *testing.T) {
		cs, err := h.Apply([]Update{
			{Op: OpSet, Class: bookClass, Key: books.Keys[0], Attr: "./price", Value: "35"},
		})
		if err != nil {
			t.Fatalf("apply: %v", err)
		}
		if rc := cs.Rels[books.Index]; rc != nil && rc.Tuples != 0 {
			t.Fatalf("no-op set dirtied %d rows", rc.Tuples)
		}
	})
	t.Run("fill a missing value", func(t *testing.T) {
		// The last WHSmith book has no price; setting it grafts the
		// leaf and turns a null into a real code.
		last := books.Keys[books.NRows()-1]
		applyAndCheck(t, h, tr, Options{}, []Update{
			{Op: OpSet, Class: bookClass, Key: last, Attr: "./price", Value: "40"},
		})
	})
	t.Run("nested leaf dirties enclosing complex column", func(t *testing.T) {
		stores := h.ByPivot(storeClass)
		cs := applyAndCheck(t, h, tr, Options{}, []Update{
			{Op: OpSet, Class: storeClass, Key: stores.Keys[0], Attr: "./contact/address", Value: "Tacoma"},
		})
		rc := cs.Rels[stores.Index]
		if rc == nil || !rc.DirtyAttr(stores.AttrIndex("./contact")) {
			t.Fatalf("contact subtree column not marked dirty")
		}
	})
}

func TestApplyInsert(t *testing.T) {
	h, tr := buildWHTree(t, Options{})
	stores := h.ByPivot(storeClass)

	cs := applyAndCheck(t, h, tr, Options{}, []Update{
		{Op: OpInsert, Class: bookClass, Parent: stores.Keys[0], Values: map[schema.RelPath]string{
			"./ISBN": "3", "./title": "New", "./price": "10",
		}},
	})
	key := cs.Keys[0]
	if key <= 0 {
		t.Fatalf("insert returned key %d", key)
	}
	books := h.ByPivot(bookClass)
	rc := cs.Rels[books.Index]
	if rc == nil || !rc.Resized {
		t.Fatalf("book relation not marked resized")
	}
	// The parent store's book set-value column must be dirty.
	if src := cs.Rels[stores.Index]; src == nil || !src.DirtyAttr(stores.AttrIndex("./book")) {
		t.Fatalf("store book set column not marked dirty")
	}

	// The new key addresses the tuple in later batches.
	applyAndCheck(t, h, tr, Options{}, []Update{
		{Op: OpSet, Class: bookClass, Key: key, Attr: "./price", Value: "12"},
	})

	// Insert a simple set member (author: SetOf str) whose value is
	// the tuple's own ".".
	authorClass := schema.Path("/warehouse/state/store/book/author")
	applyAndCheck(t, h, tr, Options{}, []Update{
		{Op: OpInsert, Class: authorClass, Parent: key, Values: map[schema.RelPath]string{".": "Z"}},
	})

	// A top-level insert can omit Parent (the root has one tuple).
	applyAndCheck(t, h, tr, Options{}, []Update{
		{Op: OpInsert, Class: stateClass, Values: map[schema.RelPath]string{"./name": "OR"}},
	})
}

func TestApplyDelete(t *testing.T) {
	h, tr := buildWHTree(t, Options{})
	stores := h.ByPivot(storeClass)
	books := h.ByPivot(bookClass)
	nBooks := books.NRows()

	// Deleting a store cascades to its books and authors.
	target := stores.Keys[0]
	cs := applyAndCheck(t, h, tr, Options{}, []Update{
		{Op: OpDelete, Class: storeClass, Key: target},
	})
	if books.NRows() >= nBooks {
		t.Fatalf("cascade did not delete books: %d -> %d", nBooks, books.NRows())
	}
	if rc := cs.Rels[books.Index]; rc == nil || !rc.Resized {
		t.Fatalf("cascaded book relation not marked resized")
	}
	if _, err := h.Apply([]Update{{Op: OpDelete, Class: storeClass, Key: target}}); err == nil {
		t.Fatalf("double delete succeeded")
	}

	// Delete the remaining tuples one by one down to empty classes.
	for stores.NRows() > 0 {
		applyAndCheck(t, h, tr, Options{}, []Update{
			{Op: OpDelete, Class: storeClass, Key: stores.Keys[0]},
		})
	}
	if books.NRows() != 0 {
		t.Fatalf("books remain after all stores deleted: %d", books.NRows())
	}
}

func TestApplyErrors(t *testing.T) {
	h, tr := buildWHTree(t, Options{})
	books := h.ByPivot(bookClass)
	cases := []struct {
		name string
		op   Update
	}{
		{"unknown class", Update{Op: OpSet, Class: "/warehouse/nope", Key: 1, Attr: "./x", Value: "v"}},
		{"unknown key", Update{Op: OpSet, Class: bookClass, Key: 99999, Attr: "./price", Value: "1"}},
		{"unknown attr", Update{Op: OpSet, Class: bookClass, Key: books.Keys[0], Attr: "./nope", Value: "1"}},
		{"set non-leaf", Update{Op: OpSet, Class: storeClass, Key: h.ByPivot(storeClass).Keys[0], Attr: "./contact", Value: "1"}},
		{"insert into root", Update{Op: OpInsert, Class: "/warehouse"}},
		{"insert unknown parent", Update{Op: OpInsert, Class: bookClass, Parent: 99999}},
		{"insert ambiguous parent", Update{Op: OpInsert, Class: bookClass}},
		{"insert bad attr", Update{Op: OpInsert, Class: stateClass, Values: map[schema.RelPath]string{"./nope": "v"}}},
		{"delete root", Update{Op: OpDelete, Class: "/warehouse", Key: 1}},
		{"delete unknown key", Update{Op: OpDelete, Class: bookClass, Key: 99999}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := h.Apply([]Update{tc.op}); err == nil {
				t.Fatalf("no error for %+v", tc.op)
			}
		})
	}
	// Failed batches must not have corrupted the hierarchy.
	cold, err := Build(tr, warehouseSchema, Options{})
	if err != nil {
		t.Fatalf("cold rebuild: %v", err)
	}
	requireEquivalent(t, h, cold)
}

// TestApplySchemaValidation pins the conformance checks the update
// path shares with cold builds (datatree.Conform): typed leaves
// reject unparsable values, and grafts may not put a second
// alternative under a Choice element. Rejected batches must leave the
// hierarchy equivalent to a cold rebuild of the (partially) mutated
// tree.
func TestApplySchemaValidation(t *testing.T) {
	typedSchema := schema.MustParse(`
lib: Rcd
  item: SetOf Rcd
    id: int
    weight: float
    title: str
    kind: Choice
      paper: Rcd
        pages: int
      disc: Rcd
        tracks: int
`)
	const typedXML = `<lib>
  <item><id>1</id><weight>2.5</weight><title>a</title><kind><paper><pages>10</pages></paper></kind></item>
  <item><id>2</id><weight>1.5</weight><title>b</title><kind><disc><tracks>9</tracks></disc></kind></item>
</lib>`
	build := func(t *testing.T) (*Hierarchy, *datatree.Tree) {
		t.Helper()
		tr, err := datatree.ParseXMLString(typedXML)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		if err := datatree.Conform(tr, typedSchema); err != nil {
			t.Fatalf("fixture does not conform: %v", err)
		}
		h, err := Build(tr, typedSchema, Options{})
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		return h, tr
	}
	const itemClass = schema.Path("/lib/item")

	h, tr := build(t)
	items := h.ByPivot(itemClass)
	bad := []struct {
		name string
		op   Update
	}{
		{"set string into int", Update{Op: OpSet, Class: itemClass, Key: items.Keys[0], Attr: "./id", Value: "upd-2"}},
		{"set string into float", Update{Op: OpSet, Class: itemClass, Key: items.Keys[0], Attr: "./weight", Value: "heavy"}},
		{"set second choice alternative", Update{Op: OpSet, Class: itemClass, Key: items.Keys[0], Attr: "./kind/disc/tracks", Value: "4"}},
		{"insert bad typed value", Update{Op: OpInsert, Class: itemClass, Values: map[schema.RelPath]string{"./id": "x"}}},
		{"insert two choice alternatives", Update{Op: OpInsert, Class: itemClass, Values: map[schema.RelPath]string{
			"./kind/paper/pages": "3", "./kind/disc/tracks": "4"}}},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := h.Apply([]Update{tc.op}); err == nil {
				t.Fatalf("no error for %+v", tc.op)
			}
			// Whatever the rejected update grafted on its way to the
			// rejection, the document must still conform and the
			// hierarchy must match a cold rebuild of it.
			if err := datatree.Conform(tr, typedSchema); err != nil {
				t.Fatalf("rejected update left a non-conforming document: %v", err)
			}
			cold, err := Build(tr, typedSchema, Options{})
			if err != nil {
				t.Fatalf("cold rebuild after rejection: %v", err)
			}
			requireEquivalent(t, h, cold)
		})
	}

	// Conforming updates across the same elements still go through:
	// typed values that parse, and a Choice flip via delete-free set on
	// the present alternative.
	good := []Update{
		{Op: OpSet, Class: itemClass, Key: items.Keys[0], Attr: "./id", Value: " 42 "},
		{Op: OpSet, Class: itemClass, Key: items.Keys[0], Attr: "./weight", Value: "3.75"},
		{Op: OpSet, Class: itemClass, Key: items.Keys[0], Attr: "./kind/paper/pages", Value: "11"},
		{Op: OpInsert, Class: itemClass, Values: map[schema.RelPath]string{"./id": "7", "./kind/disc/tracks": "12"}},
	}
	if _, err := h.Apply(good); err != nil {
		t.Fatalf("conforming batch rejected: %v", err)
	}
	if err := datatree.Conform(tr, typedSchema); err != nil {
		t.Fatalf("document no longer conforms: %v", err)
	}
	cold, err := Build(tr, typedSchema, Options{})
	if err != nil {
		t.Fatalf("cold rebuild: %v", err)
	}
	requireEquivalent(t, h, cold)
}

func TestApplyNotUpdatable(t *testing.T) {
	h := &Hierarchy{} // hand-assembled: no retained patch state
	if _, err := h.Apply(nil); err != ErrNotUpdatable {
		t.Fatalf("err = %v, want ErrNotUpdatable", err)
	}
	if h.Updatable() {
		t.Fatalf("hand-assembled hierarchy claims updatable")
	}
	if got, _ := buildWHTree(t, Options{}); !got.Updatable() {
		t.Fatalf("built hierarchy not updatable")
	}
}

// TestApplyRandomized drives random batches of updates against the
// warehouse document (ordered and unordered set codes) and checks,
// after every batch, both the warm-layer contract and equivalence
// with a cold rebuild of the mutated tree.
func TestApplyRandomized(t *testing.T) {
	for _, ordered := range []bool{false, true} {
		t.Run(fmt.Sprintf("ordered=%v", ordered), func(t *testing.T) {
			opts := Options{OrderedSets: ordered}
			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < 20; trial++ {
				h, tr := buildWHTree(t, opts)
				for batch := 0; batch < 6; batch++ {
					ops := randomOps(rng, h, 1+rng.Intn(3))
					if len(ops) == 0 {
						continue
					}
					t.Logf("trial %d batch %d: %s", trial, batch, describeOps(ops))
					applyAndCheck(t, h, tr, opts, ops)
				}
			}
		})
	}
}

// randomOps generates up to n valid random updates against the
// current state of h. Every op must address a tuple that still exists
// when it runs, so a delete — whose cascade could remove tuples later
// ops target — always terminates the batch.
func randomOps(rng *rand.Rand, h *Hierarchy, n int) []Update {
	var essential []*Relation
	for _, r := range h.Relations {
		if r.Essential {
			essential = append(essential, r)
		}
	}
	var ops []Update
	used := make(map[int]bool) // keys already targeted this batch
	for len(ops) < n {
		r := essential[rng.Intn(len(essential))]
		switch rng.Intn(3) {
		case 0: // set
			if r.NRows() == 0 {
				continue
			}
			var leaves []int
			for ai, a := range r.Attrs {
				if a.Kind == Leaf {
					leaves = append(leaves, ai)
				}
			}
			if len(leaves) == 0 {
				continue
			}
			key := r.Keys[rng.Intn(r.NRows())]
			if used[key] {
				continue
			}
			used[key] = true
			a := r.Attrs[leaves[rng.Intn(len(leaves))]]
			ops = append(ops, Update{Op: OpSet, Class: r.Pivot, Key: key,
				Attr: a.Rel, Value: fmt.Sprintf("v%d", rng.Intn(5))})
		case 1: // insert
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
				if a.Kind == Leaf && rng.Intn(2) == 0 {
					vals[a.Rel] = fmt.Sprintf("v%d", rng.Intn(5))
				}
			}
			ops = append(ops, Update{Op: OpInsert, Class: r.Pivot, Parent: parent, Values: vals})
		default: // delete
			if r.NRows() == 0 {
				continue
			}
			key := r.Keys[rng.Intn(r.NRows())]
			if used[key] {
				continue
			}
			used[key] = true
			ops = append(ops, Update{Op: OpDelete, Class: r.Pivot, Key: key})
			return ops
		}
	}
	return ops
}

func describeOps(ops []Update) string {
	var b strings.Builder
	for i, op := range ops {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%s %s key=%d parent=%d", op.Op, op.Class, op.Key, op.Parent)
	}
	return b.String()
}

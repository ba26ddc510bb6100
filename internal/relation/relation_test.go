package relation

import (
	"testing"

	"discoverxfd/internal/datatree"
	"discoverxfd/internal/schema"
)

const warehouseXML = `
<warehouse>
  <state>
    <name>WA</name>
    <store>
      <contact><name>Borders</name><address>Seattle</address></contact>
      <book><ISBN>1</ISBN><author>Post</author><title>F</title><price>30</price></book>
      <book><ISBN>2</ISBN><author>R</author><author>G</author><title>D</title><price>40</price></book>
    </store>
  </state>
  <state>
    <name>KY</name>
    <store>
      <contact><name>Borders</name><address>Lexington</address></contact>
      <book><ISBN>2</ISBN><author>G</author><author>R</author><title>D</title><price>40</price></book>
    </store>
    <store>
      <contact><name>WHSmith</name><address>Lexington</address></contact>
      <book><ISBN>2</ISBN><author>R</author><author>G</author><title>D</title></book>
    </store>
  </state>
</warehouse>`

var warehouseSchema = schema.MustParse(`
warehouse: Rcd
  state: SetOf Rcd
    name: str
    store: SetOf Rcd
      contact: Rcd
        name: str
        address: str
      book: SetOf Rcd
        ISBN: str
        author: SetOf str
        title: str
        price: str
`)

func buildWH(t *testing.T, opts Options) *Hierarchy {
	t.Helper()
	tr, err := datatree.ParseXMLString(warehouseXML)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	h, err := Build(tr, warehouseSchema, opts)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return h
}

// TestHierarchyShape checks the relation tree of the paper's Figure 6:
// essential relations R_state, R_store, R_book, R_author under a
// synthetic root.
func TestHierarchyShape(t *testing.T) {
	h := buildWH(t, Options{})
	if got := len(h.EssentialRelations()); got != 4 {
		t.Fatalf("essential relations = %d, want 4", got)
	}
	if h.Root.Essential || h.Root.NRows() != 1 {
		t.Fatalf("root relation must be non-essential with one tuple")
	}
	rels := map[schema.Path]int{
		"/warehouse/state":                   2,
		"/warehouse/state/store":             3,
		"/warehouse/state/store/book":        4,
		"/warehouse/state/store/book/author": 7,
	}
	for pivot, rows := range rels {
		r := h.ByPivot(pivot)
		if r == nil {
			t.Fatalf("missing relation %s", pivot)
		}
		if r.NRows() != rows {
			t.Errorf("%s: %d rows, want %d", pivot, r.NRows(), rows)
		}
		if !r.Essential {
			t.Errorf("%s must be essential", pivot)
		}
	}
	if h.TotalTuples() != 2+3+4+7 {
		t.Fatalf("TotalTuples = %d", h.TotalTuples())
	}
}

// TestStoreAttributes checks the column layout of R_store against
// Figure 6: contact (complex), contact/name, contact/address, plus
// the ./book set pseudo-attribute.
func TestStoreAttributes(t *testing.T) {
	h := buildWH(t, Options{})
	store := h.ByPivot("/warehouse/state/store")
	want := map[schema.RelPath]AttrKind{
		"./contact":         Complex,
		"./contact/name":    Leaf,
		"./contact/address": Leaf,
		"./book":            SetValue,
	}
	if len(store.Attrs) != len(want) {
		t.Fatalf("R_store attrs: %v", store.Attrs)
	}
	for rel, kind := range want {
		i := store.AttrIndex(rel)
		if i < 0 {
			t.Fatalf("missing attribute %s", rel)
		}
		if store.Attrs[i].Kind != kind {
			t.Errorf("%s kind = %v, want %v", rel, store.Attrs[i].Kind, kind)
		}
	}
}

// TestAuthorSelfValue checks that a simple set element (author:
// SetOf str) yields a relation whose single attribute is its own
// value (the "." path).
func TestAuthorSelfValue(t *testing.T) {
	h := buildWH(t, Options{})
	author := h.ByPivot("/warehouse/state/store/book/author")
	if len(author.Attrs) != 1 || author.Attrs[0].Rel != "." || author.Attrs[0].Kind != Leaf {
		t.Fatalf("R_author attrs: %+v", author.Attrs)
	}
	// Values: Post, R, G, G, R, R, G -> Post once, R x3, G x3... the
	// dictionary encodes equal strings equally.
	p := author.ColumnPartition(0)
	if p.Size() != 2 {
		t.Fatalf("author value partition has %d groups, want 2", p.Size())
	}
}

// TestParentLinks verifies parent indices compose to the right
// ancestors.
func TestParentLinks(t *testing.T) {
	h := buildWH(t, Options{})
	book := h.ByPivot("/warehouse/state/store/book")
	store := h.ByPivot("/warehouse/state/store")
	state := h.ByPivot("/warehouse/state")
	// Book rows 0,1 under store 0 (WA); row 2 under store 1; row 3
	// under store 2.
	wantStore := []int32{0, 0, 1, 2}
	for i, w := range wantStore {
		if book.ParentIdx[i] != w {
			t.Fatalf("book %d parent = %d, want %d", i, book.ParentIdx[i], w)
		}
	}
	wantState := []int32{0, 1, 1}
	for i, w := range wantState {
		if store.ParentIdx[i] != w {
			t.Fatalf("store %d parent = %d, want %d", i, store.ParentIdx[i], w)
		}
	}
	if state.ParentIdx[0] != 0 || state.ParentIdx[1] != 0 {
		t.Fatalf("states must point at the root tuple")
	}
	if state.Parent != h.Root {
		t.Fatalf("state's parent relation must be the root relation")
	}
}

// TestSetPseudoAttributeSemantics: the ./author column of R_book must
// group books 1 and 2 of ISBN 2 together even though their author
// order differs, and keep the singleton-author book apart.
func TestSetPseudoAttributeSemantics(t *testing.T) {
	h := buildWH(t, Options{})
	book := h.ByPivot("/warehouse/state/store/book")
	ai := book.AttrIndex("./author")
	if ai < 0 {
		t.Fatal("missing ./author set attribute")
	}
	col := book.Cols[ai]
	if col[1] != col[2] || col[1] != col[3] {
		t.Fatalf("books with equal author sets must share a code: %v", col)
	}
	if col[0] == col[1] {
		t.Fatalf("different author sets must differ: %v", col)
	}

	// Ordered mode distinguishes (R,G) from (G,R).
	ho := buildWH(t, Options{OrderedSets: true})
	booko := ho.ByPivot("/warehouse/state/store/book")
	colo := booko.Cols[booko.AttrIndex("./author")]
	if colo[1] == colo[2] {
		t.Fatalf("ordered mode must distinguish reordered author lists: %v", colo)
	}
	if colo[1] != colo[3] {
		t.Fatalf("ordered mode must match same-ordered lists: %v", colo)
	}
}

// TestMissingValuesGetUniqueNulls: the missing price of the last book
// must be a unique negative code.
func TestMissingValuesGetUniqueNulls(t *testing.T) {
	h := buildWH(t, Options{})
	book := h.ByPivot("/warehouse/state/store/book")
	pi := book.AttrIndex("./price")
	col := book.Cols[pi]
	if !IsNull(col[3]) {
		t.Fatalf("missing price should be null: %v", col)
	}
	for i := 0; i < 3; i++ {
		if IsNull(col[i]) {
			t.Fatalf("present price %d encoded as null", i)
		}
	}
	if col[1] != col[2] {
		t.Fatalf("equal prices must share codes: %v", col)
	}
}

// TestComplexAttributeIsSubtreeValue: two contacts with different
// subtrees get different codes; a contact compared against itself via
// value equality would collide only on identical subtrees.
func TestComplexAttributeIsSubtreeValue(t *testing.T) {
	h := buildWH(t, Options{})
	store := h.ByPivot("/warehouse/state/store")
	col := store.Cols[store.AttrIndex("./contact")]
	if col[0] == col[1] || col[1] == col[2] || col[0] == col[2] {
		t.Fatalf("distinct contact subtrees must have distinct codes: %v", col)
	}
}

func TestDisableSetAttrs(t *testing.T) {
	h := buildWH(t, Options{DisableSetAttrs: true})
	book := h.ByPivot("/warehouse/state/store/book")
	if book.AttrIndex("./author") >= 0 {
		t.Fatal("set pseudo-attributes must be absent when disabled")
	}
	store := h.ByPivot("/warehouse/state/store")
	if store.AttrIndex("./book") >= 0 {
		t.Fatal("set pseudo-attributes must be absent when disabled")
	}
}

// TestDeepSetUnderComplex exercises a set element nested below a
// non-set complex element (contact/phone), whose relation must hang
// off R_store with a multi-step descent.
func TestDeepSetUnderComplex(t *testing.T) {
	s := schema.MustParse(`
shop: Rcd
  store: SetOf Rcd
    contact: Rcd
      city: str
      phone: SetOf str
`)
	tr, err := datatree.ParseXMLString(`
<shop>
  <store><contact><city>A</city><phone>1</phone><phone>2</phone></contact></store>
  <store><contact><city>B</city></contact></store>
</shop>`)
	if err != nil {
		t.Fatal(err)
	}
	h, err := Build(tr, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	phone := h.ByPivot("/shop/store/contact/phone")
	if phone == nil {
		t.Fatal("missing R_phone")
	}
	if phone.NRows() != 2 {
		t.Fatalf("R_phone rows = %d", phone.NRows())
	}
	store := h.ByPivot("/shop/store")
	si := store.AttrIndex("./contact/phone")
	if si < 0 || store.Attrs[si].Kind != SetValue {
		t.Fatalf("missing set pseudo-attribute ./contact/phone: %+v", store.Attrs)
	}
	// Store B has no phones: null code.
	if !IsNull(store.Cols[si][1]) {
		t.Fatalf("empty phone set should be null, got %v", store.Cols[si])
	}
	if phone.Parent != store {
		t.Fatal("R_phone's parent relation must be R_store")
	}
}

func TestBuildErrors(t *testing.T) {
	tr, _ := datatree.ParseXMLString(`<other/>`)
	if _, err := Build(tr, warehouseSchema, Options{}); err == nil {
		t.Fatal("mismatched root must fail")
	}
	if _, err := Build(nil, warehouseSchema, Options{}); err == nil {
		t.Fatal("nil tree must fail")
	}
}

func TestRelationStringSmoke(t *testing.T) {
	h := buildWH(t, Options{})
	s := h.ByPivot("/warehouse/state").String()
	if len(s) == 0 {
		t.Fatal("String() should render something")
	}
}

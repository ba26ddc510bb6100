package refine

import (
	"context"
	"strings"
	"testing"
	"time"

	"discoverxfd/internal/core"
	"discoverxfd/internal/datatree"
	"discoverxfd/internal/relation"
	"discoverxfd/internal/schema"
)

const shopXML = `
<shop>
  <item><sku>1</sku><name>Pen</name><color>blue</color></item>
  <item><sku>1</sku><name>Pen</name><color>red</color></item>
  <item><sku>2</sku><name>Pad</name><color>blue</color></item>
  <item><sku>2</sku><name>Pad</name><color>green</color></item>
  <item><sku>3</sku><name>Ink</name><color>black</color></item>
</shop>`

func build(t *testing.T, xml string) (*datatree.Tree, *relation.Hierarchy, *core.Result) {
	t.Helper()
	tree, err := datatree.ParseXMLString(xml)
	if err != nil {
		t.Fatal(err)
	}
	s, err := datatree.InferSchema(tree)
	if err != nil {
		t.Fatal(err)
	}
	h, err := relation.Build(tree, s, relation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.NewEngine(core.Options{}).Discover(context.Background(), h, time.Time{}, false)
	if err != nil {
		t.Fatal(err)
	}
	return tree, h, res
}

func TestSuggestRanksBySavedValues(t *testing.T) {
	_, h, res := build(t, shopXML)
	sugs := Suggest(h, res)
	if len(sugs) == 0 {
		t.Fatal("expected suggestions for the duplicated sku->name pairs")
	}
	for i := 1; i < len(sugs); i++ {
		if sugs[i].SavedValues > sugs[i-1].SavedValues {
			t.Fatalf("suggestions not ranked: %v", sugs)
		}
	}
	found := false
	for _, s := range sugs {
		if string(s.FD.RHS) == "./name" && len(s.FD.LHS) == 1 && string(s.FD.LHS[0]) == "./sku" {
			found = true
			if s.SavedValues != 2 {
				t.Fatalf("sku->name should save 2 values, got %d", s.SavedValues)
			}
			if !s.Applicable {
				t.Fatalf("leaf intra FD must be applicable")
			}
			if !strings.Contains(s.NewElement, "item_name_by_sku") {
				t.Fatalf("unexpected element label %q", s.NewElement)
			}
		}
	}
	if !found {
		t.Fatalf("no suggestion for sku->name; got %v", sugs)
	}
}

func TestApplyEliminatesRedundancy(t *testing.T) {
	tree, h, res := build(t, shopXML)
	var fd core.FD
	ok := false
	for _, f := range res.FDs {
		if string(f.RHS) == "./name" && len(f.LHS) == 1 && string(f.LHS[0]) == "./sku" {
			fd, ok = f, true
		}
	}
	if !ok {
		t.Fatal("sku->name not discovered")
	}
	removed, err := Apply(tree, h, fd)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 5 {
		t.Fatalf("removed %d name occurrences, want 5", removed)
	}
	// Items no longer carry name.
	for _, item := range tree.Root.ChildrenLabeled("item") {
		if item.Child("name") != nil {
			t.Fatalf("item still has a name:\n%s", tree)
		}
	}
	// The lookup element holds 3 entries (distinct skus), each with a
	// sku and a name.
	lookups := tree.Root.ChildrenLabeled("item_name_by_sku")
	if len(lookups) != 3 {
		t.Fatalf("lookup entries = %d, want 3:\n%s", len(lookups), tree)
	}
	for _, l := range lookups {
		if l.Child("sku") == nil || l.Child("name") == nil {
			t.Fatalf("lookup entry incomplete:\n%s", tree)
		}
	}
	// Re-discover on the refined document: the sku->name redundancy
	// within items is gone, and sku is now a key of the lookup class.
	s2, err := datatree.InferSchema(tree)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := relation.Build(tree, s2, relation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := core.NewEngine(core.Options{}).Discover(context.Background(), h2, time.Time{}, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res2.Redundancies {
		if r.FD.Class == "/shop/item" && string(r.FD.RHS) == "./name" {
			t.Fatalf("name redundancy survived the repair: %v", r)
		}
	}
	keyFound := false
	for _, k := range res2.Keys {
		if k.Class == "/shop/item_name_by_sku" && len(k.LHS) == 1 && string(k.LHS[0]) == "./sku" {
			keyFound = true
		}
	}
	if !keyFound {
		t.Fatalf("sku should be a key of the lookup class; keys: %v", res2.Keys)
	}
}

func TestApplySetRHS(t *testing.T) {
	xml := `
<lib>
  <book><isbn>1</isbn><author>A</author><author>B</author></book>
  <book><isbn>1</isbn><author>B</author><author>A</author></book>
  <book><isbn>2</isbn><author>C</author></book>
</lib>`
	tree, h, res := build(t, xml)
	var fd core.FD
	ok := false
	for _, f := range res.FDs {
		if string(f.RHS) == "./author" && len(f.LHS) == 1 && string(f.LHS[0]) == "./isbn" {
			fd, ok = f, true
		}
	}
	if !ok {
		t.Fatalf("isbn->author not discovered: %v", res.FDs)
	}
	removed, err := Apply(tree, h, fd)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 5 {
		t.Fatalf("removed %d authors, want 5", removed)
	}
	lookups := tree.Root.ChildrenLabeled("book_author_by_isbn")
	if len(lookups) != 2 {
		t.Fatalf("lookup entries = %d, want 2", len(lookups))
	}
	// The isbn-1 entry keeps its full author set.
	for _, l := range lookups {
		if l.Child("isbn").Value == "1" && len(l.ChildrenLabeled("author")) != 2 {
			t.Fatalf("author set not preserved:\n%s", tree)
		}
	}
}

func TestApplyRejectsInterFDs(t *testing.T) {
	tree, h, _ := build(t, shopXML)
	fd := core.FD{Class: "/shop/item", LHS: []schema.RelPath{"../x"}, RHS: "./name", Inter: true}
	if _, err := Apply(tree, h, fd); err == nil {
		t.Fatal("inter-relation FDs must be rejected")
	}
}

func TestSuggestionString(t *testing.T) {
	s := Suggestion{
		FD:         core.FD{Class: "/a/b", LHS: []schema.RelPath{"./x"}, RHS: "./y"},
		NewElement: "b_y_by_x", SavedValues: 7,
	}
	out := s.String()
	if !strings.Contains(out, "b_y_by_x") || !strings.Contains(out, "7 value(s)") || !strings.Contains(out, "(manual)") {
		t.Fatalf("String: %q", out)
	}
}

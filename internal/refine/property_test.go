package refine

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"discoverxfd/internal/core"
	"discoverxfd/internal/datatree"
	"discoverxfd/internal/relation"
)

// randomShop builds a flat random document with injected sku->name
// redundancy plus noise columns.
func randomShop(seed int64) *datatree.Tree {
	r := rand.New(rand.NewSource(seed))
	nameOf := map[int]string{}
	root := &datatree.Node{Label: "shop"}
	for i, n := 0, 5+r.Intn(20); i < n; i++ {
		sku := r.Intn(6)
		if _, ok := nameOf[sku]; !ok {
			nameOf[sku] = fmt.Sprintf("N%d", sku*7)
		}
		item := root.AddChild("item")
		item.AddLeaf("sku", fmt.Sprintf("%d", sku))
		item.AddLeaf("name", nameOf[sku])
		item.AddLeaf("qty", fmt.Sprintf("%d", r.Intn(4)))
	}
	return datatree.NewTree(root)
}

// TestApplyPropertyReducesRedundancy property-checks the repair loop:
// applying any applicable suggestion keeps the document
// schema-consistent and never increases the total witnessed
// redundancy.
func TestApplyPropertyReducesRedundancy(t *testing.T) {
	f := func(seed int64) bool {
		tree := randomShop(seed)
		s, err := datatree.InferSchema(tree)
		if err != nil {
			return false
		}
		h, err := relation.Build(tree, s, relation.Options{})
		if err != nil {
			return false
		}
		res, err := core.NewEngine(core.Options{}).Discover(context.Background(), h, time.Time{}, false)
		if err != nil {
			return false
		}
		before := 0
		for _, r := range res.Redundancies {
			before += r.RedundantValues
		}
		var next *Suggestion
		for _, sg := range Suggest(h, res) {
			if sg.Applicable {
				sg := sg
				next = &sg
				break
			}
		}
		if next == nil {
			return true // nothing to repair
		}
		if _, err := Apply(tree, h, next.FD); err != nil {
			return false
		}
		s2, err := datatree.InferSchema(tree)
		if err != nil {
			return false
		}
		if err := datatree.Conform(tree, s2); err != nil {
			return false
		}
		h2, err := relation.Build(tree, s2, relation.Options{})
		if err != nil {
			return false
		}
		res2, err := core.NewEngine(core.Options{}).Discover(context.Background(), h2, time.Time{}, false)
		if err != nil {
			return false
		}
		after := 0
		for _, r := range res2.Redundancies {
			after += r.RedundantValues
		}
		return after <= before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

package xmlgen

import (
	"context"
	"testing"
	"time"

	"discoverxfd/internal/core"
	"discoverxfd/internal/datatree"
	"discoverxfd/internal/relation"
)

func datasets() []Dataset {
	return []Dataset{
		Warehouse(DefaultWarehouse()),
		DBLP(DefaultDBLP()),
		PSD(DefaultPSD()),
		Auction(DefaultAuction()),
		Mondial(DefaultMondial()),
		Catalog(DefaultCatalog()),
	}
}

// TestGeneratedDocumentsConform checks every generator emits a
// document conforming to its declared schema and that schema
// inference agrees on set-ness.
func TestGeneratedDocumentsConform(t *testing.T) {
	for _, ds := range datasets() {
		if err := datatree.Conform(ds.Tree, ds.Schema); err != nil {
			t.Errorf("%s: %v", ds.Name, err)
		}
	}
}

// TestGeneratorsDeterministic checks that the same parameters produce
// byte-identical documents.
func TestGeneratorsDeterministic(t *testing.T) {
	a := Warehouse(DefaultWarehouse())
	b := Warehouse(DefaultWarehouse())
	if a.Tree.XMLString() != b.Tree.XMLString() {
		t.Errorf("warehouse generator is not deterministic")
	}
	c := Warehouse(WarehouseParams{States: 4, StoresPerState: 3, BooksPerStore: 12,
		CatalogSize: 18, Chains: 4, MissingPricePermille: 100, Seed: 99})
	if a.Tree.XMLString() == c.Tree.XMLString() {
		t.Errorf("different seeds should produce different documents")
	}
}

// TestGroundTruthHolds verifies every injected constraint directly
// against the data via the independent evaluator.
func TestGroundTruthHolds(t *testing.T) {
	for _, ds := range datasets() {
		h, err := relation.Build(ds.Tree, ds.Schema, relation.Options{})
		if err != nil {
			t.Fatalf("%s: build: %v", ds.Name, err)
		}
		for _, c := range ds.GroundTruth {
			ev, err := core.Evaluate(h, c.Class, c.LHS, c.RHS)
			if err != nil {
				t.Fatalf("%s: evaluate %s: %v", ds.Name, c, err)
			}
			if !ev.Holds {
				t.Errorf("%s: ground truth violated: %s (%d violations)", ds.Name, c, ev.Violations)
			}
			if c.Key && !ev.LHSIsKey {
				t.Errorf("%s: ground-truth key is not a key: %s", ds.Name, c)
			}
			if !c.Key && ev.LHSIsKey {
				t.Errorf("%s: ground-truth FD unexpectedly has a key LHS (no redundancy): %s", ds.Name, c)
			}
		}
	}
}

// TestDiscoveryFindsGroundTruth runs full DiscoverXFD on every
// dataset and checks that each injected FD is implied by a discovered
// FD (same class and RHS, LHS ⊆ the injected LHS) and each injected
// key by a discovered key.
func TestDiscoveryFindsGroundTruth(t *testing.T) {
	for _, ds := range datasets() {
		h, err := relation.Build(ds.Tree, ds.Schema, relation.Options{})
		if err != nil {
			t.Fatalf("%s: build: %v", ds.Name, err)
		}
		res, err := core.NewEngine(core.Options{}).Discover(context.Background(), h, time.Time{}, false)
		if err != nil {
			t.Fatalf("%s: discover: %v", ds.Name, err)
		}
		for _, c := range ds.GroundTruth {
			if c.Key {
				if !impliedByKey(res, c) {
					t.Errorf("%s: injected key not implied by any discovered key: %s", ds.Name, c)
				}
				continue
			}
			if !impliedByFD(res, c) {
				t.Errorf("%s: injected FD not implied by any discovered FD: %s", ds.Name, c)
			}
		}
	}
}

func impliedByFD(res *core.Result, c Constraint) bool {
	want := make(map[string]bool, len(c.LHS))
	for _, p := range c.LHS {
		want[string(p)] = true
	}
	for _, fd := range res.FDs {
		if fd.Class != c.Class || fd.RHS != c.RHS {
			continue
		}
		ok := true
		for _, p := range fd.LHS {
			if !want[string(p)] {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func impliedByKey(res *core.Result, c Constraint) bool {
	want := make(map[string]bool, len(c.LHS))
	for _, p := range c.LHS {
		want[string(p)] = true
	}
	for _, k := range res.Keys {
		if k.Class != c.Class {
			continue
		}
		ok := true
		for _, p := range k.LHS {
			if !want[string(p)] {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

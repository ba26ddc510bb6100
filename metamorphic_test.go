package discoverxfd_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"discoverxfd"
	"discoverxfd/internal/datatree"
	"discoverxfd/internal/relation"
	"discoverxfd/internal/schema"
	"discoverxfd/internal/source/jsondoc"
	"discoverxfd/internal/xmlgen"
)

// shuffleSiblings permutes, under every node, the children that share
// a label among the positions that label holds, then renumbers the
// tree. The label sequence under each node is unchanged, so the
// document still conforms to its schema; what moves is the order of
// set members, and with it the row order of every relation and the
// group order of every partition.
func shuffleSiblings(tr *datatree.Tree, seed int64) {
	r := rand.New(rand.NewSource(seed))
	tr.Root.Walk(func(n *datatree.Node) bool {
		at := map[string][]int{}
		for i, c := range n.Children {
			at[c.Label] = append(at[c.Label], i)
		}
		for _, c := range n.Children {
			pos := at[c.Label]
			if len(pos) < 2 {
				continue
			}
			delete(at, c.Label)
			kids := make([]*datatree.Node, len(pos))
			for i, p := range pos {
				kids[i] = n.Children[p]
			}
			r.Shuffle(len(kids), func(i, j int) { kids[i], kids[j] = kids[j], kids[i] })
			for i, p := range pos {
				n.Children[p] = kids[i]
			}
		}
		return true
	})
	tr.Renumber()
}

// metamorphicCorpora are the documents the whole-pipeline metamorphic
// properties range over: every generator at default scale, plus psd ×8
// and a 300×8 wide table. Each call generates a fresh copy.
func metamorphicCorpora() []func() xmlgen.Dataset {
	return []func() xmlgen.Dataset{
		func() xmlgen.Dataset { return xmlgen.Warehouse(xmlgen.DefaultWarehouse()) },
		func() xmlgen.Dataset { return xmlgen.DBLP(xmlgen.DefaultDBLP()) },
		func() xmlgen.Dataset { return xmlgen.Auction(xmlgen.DefaultAuction()) },
		func() xmlgen.Dataset { return xmlgen.Mondial(xmlgen.DefaultMondial()) },
		func() xmlgen.Dataset { return xmlgen.Catalog(xmlgen.DefaultCatalog()) },
		func() xmlgen.Dataset { return xmlgen.PSD(xmlgen.DefaultPSD()) },
		func() xmlgen.Dataset { p := xmlgen.DefaultPSD(); p.Entries *= 8; return xmlgen.PSD(p) },
		func() xmlgen.Dataset { p := xmlgen.DefaultWide(8); p.Rows = 300; return xmlgen.Wide(p) },
	}
}

// TestShuffleSiblingsInvariant is a metamorphic property of the whole
// pipeline: the order of same-label siblings carries no meaning, so
// shuffling them must not change the Result JSON (with times zeroed),
// counters included. Result JSON names no node keys. Every corpus of
// metamorphicCorpora runs under default options and with approximate
// FDs, each shuffled with three seeds.
func TestShuffleSiblingsInvariant(t *testing.T) {
	for _, gen := range metamorphicCorpora() {
		name := gen().Name
		for _, opts := range []*discoverxfd.Options{nil, {ApproxError: 0.05}} {
			t.Run(fmt.Sprintf("%s/approx=%v", name, opts != nil), func(t *testing.T) {
				t.Parallel()
				want := discoverJSON(t, gen(), opts)
				for seed := int64(1); seed <= 3; seed++ {
					ds := gen()
					before := ds.Tree.String()
					if shuffleSiblings(ds.Tree, seed); ds.Tree.String() == before {
						t.Fatalf("seed %d: the shuffle moved no sibling", seed)
					}
					if got := discoverJSON(t, ds, opts); !bytes.Equal(got, want) {
						t.Errorf("seed %d: Result JSON changed under a sibling shuffle\n%s", seed, diffHint(want, got))
					}
				}
			})
		}
	}
}

// TestJSONSpellingInvariant is a metamorphic property of the source
// layer: a document written as JSON by jsondoc.Write and read back by
// LoadJSON is the same document. Over every corpus of
// metamorphicCorpora the JSON spelling must parse to the XML
// spelling's tree, infer the same schema text, and discover the same
// Result JSON (times zeroed) under the declared schema and under the
// schema each spelling infers.
func TestJSONSpellingInvariant(t *testing.T) {
	for _, gen := range metamorphicCorpora() {
		ds := gen()
		t.Run(ds.Name, func(t *testing.T) {
			t.Parallel()
			var spelled bytes.Buffer
			if err := jsondoc.Write(&spelled, ds.Tree, ds.Schema); err != nil {
				t.Fatal(err)
			}
			doc, err := discoverxfd.NewEngine(nil).LoadJSON(context.Background(), &spelled)
			if err != nil {
				t.Fatal(err)
			}
			if doc.String() != ds.Tree.String() {
				t.Fatal("the JSON spelling parses to a different tree than the XML one")
			}
			xmlInferred, err := discoverxfd.InferSchema(ds.Tree)
			if err != nil {
				t.Fatal(err)
			}
			jsonInferred, err := discoverxfd.InferSchema(doc)
			if err != nil {
				t.Fatal(err)
			}
			if xmlInferred.String() != jsonInferred.String() {
				t.Errorf("inferred schemas diverge\njson:\n%s\nxml:\n%s", jsonInferred, xmlInferred)
			}
			twin := ds
			twin.Tree = doc
			for _, declared := range []bool{true, false} {
				fromXML, fromJSON := ds, twin
				if !declared {
					fromXML.Schema, fromJSON.Schema = nil, nil // Discover infers
				}
				if want, got := discoverJSON(t, fromXML, nil), discoverJSON(t, fromJSON, nil); !bytes.Equal(got, want) {
					t.Errorf("declared schema %v: the JSON spelling's Result JSON differs\n%s", declared, diffHint(want, got))
				}
			}
		})
	}
}

// TestSetInverseRestoresResult is a metamorphic property of the warm
// write path: a batch of leaf sets on present values, followed by the
// batch that sets every leaf back, must leave warm discovery with the
// Result JSON (Stats zeroed) the first discovery returned. Every
// generator runs at default scale. The engine discovers warm after
// each batch, so the inverse batch patches a freshly published entry,
// and the run between the batches must match a cold engine's over
// the mutated document.
func TestSetInverseRestoresResult(t *testing.T) {
	for ci, gen := range inverseCorpora() {
		ds := gen()
		t.Run(ds.Name, func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			eng := discoverxfd.NewEngine(nil)
			h, err := eng.BuildHierarchy(ctx, ds.Tree, ds.Schema)
			if err != nil {
				t.Fatal(err)
			}
			first, err := eng.DiscoverHierarchy(ctx, h)
			if err != nil {
				t.Fatal(err)
			}
			set, inverse := leafSets(rand.New(rand.NewSource(int64(ci))), h, ds.Tree, 8)
			if len(set) == 0 {
				t.Fatal("no present leaf to set")
			}
			var last *discoverxfd.Result
			for i, ops := range [][]discoverxfd.Update{set, inverse} {
				if _, err := eng.ApplyUpdate(h, ops); err != nil {
					t.Fatal(err)
				}
				if last, err = eng.DiscoverHierarchy(ctx, h); err != nil {
					t.Fatal(err)
				}
				if i > 0 {
					break
				}
				cold, err := discoverxfd.NewEngine(nil).Discover(ctx, ds.Tree, ds.Schema)
				if err != nil {
					t.Fatal(err)
				}
				if want, got := resultJSON(t, cold), resultJSON(t, last); !bytes.Equal(got, want) {
					t.Fatalf("after sets %v: warm Result differs from cold\n%s", set, diffHint(want, got))
				}
			}
			if want, got := resultJSON(t, first), resultJSON(t, last); !bytes.Equal(got, want) {
				t.Errorf("sets %v and their inverse changed the Result\n%s", set, diffHint(want, got))
			}
		})
	}
}

// inverseCorpora returns the generators the update-inverse properties
// run over: every generator at default scale, a wide table and a
// forest of them. Each call builds fresh documents, which the updates
// then mutate.
func inverseCorpora() []func() xmlgen.Dataset {
	return []func() xmlgen.Dataset{
		func() xmlgen.Dataset { return xmlgen.Warehouse(xmlgen.DefaultWarehouse()) },
		func() xmlgen.Dataset { return xmlgen.DBLP(xmlgen.DefaultDBLP()) },
		func() xmlgen.Dataset { return xmlgen.Auction(xmlgen.DefaultAuction()) },
		func() xmlgen.Dataset { return xmlgen.Mondial(xmlgen.DefaultMondial()) },
		func() xmlgen.Dataset { return xmlgen.Catalog(xmlgen.DefaultCatalog()) },
		func() xmlgen.Dataset { return xmlgen.PSD(xmlgen.DefaultPSD()) },
		func() xmlgen.Dataset { return xmlgen.Wide(xmlgen.DefaultWide(8)) },
		func() xmlgen.Dataset {
			return xmlgen.WideForest(xmlgen.WideForestParams{Tables: 4, Table: xmlgen.DefaultWide(8)})
		},
	}
}

// TestInsertDeleteInverseRestoresResult is the insert/delete twin of
// TestSetInverseRestoresResult: a batch inserting one tuple per
// essential class, under a random existing parent tuple and with a
// random value for every leaf, followed by the batch deleting the
// inserted tuples by the keys the Changeset reported, must leave warm
// discovery with the first Result JSON (Stats zeroed). The run between
// the batches must match a cold engine's over the mutated document.
func TestInsertDeleteInverseRestoresResult(t *testing.T) {
	for ci, gen := range inverseCorpora() {
		ds := gen()
		t.Run(ds.Name, func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			rng := rand.New(rand.NewSource(int64(ci)))
			eng := discoverxfd.NewEngine(nil)
			h, err := eng.BuildHierarchy(ctx, ds.Tree, ds.Schema)
			if err != nil {
				t.Fatal(err)
			}
			first, err := eng.DiscoverHierarchy(ctx, h)
			if err != nil {
				t.Fatal(err)
			}
			var inserts []discoverxfd.Update
			for _, r := range h.Relations {
				if !r.Essential {
					continue
				}
				parent := 0
				if r.Parent.Essential {
					if r.Parent.NRows() == 0 {
						continue
					}
					parent = r.Parent.Keys[rng.Intn(r.Parent.NRows())]
				}
				vals := make(map[discoverxfd.RelPath]string)
				chosen := make(map[schema.Path]bool) // Choice elements given their one alternative
				for _, a := range r.Attrs {
					if a.Kind != relation.Leaf {
						continue
					}
					if c := choiceAbove(h.Schema, a.Path, r.Pivot); c != "" {
						if chosen[c] {
							continue
						}
						chosen[c] = true
					}
					vals[a.Rel] = scriptValue(rng, h, a)
				}
				inserts = append(inserts, discoverxfd.Update{Op: discoverxfd.OpInsert, Class: r.Pivot, Parent: parent, Values: vals})
			}
			cs, err := eng.ApplyUpdate(h, inserts)
			if err != nil {
				t.Fatal(err)
			}
			inserted, err := eng.DiscoverHierarchy(ctx, h)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := discoverxfd.NewEngine(nil).Discover(ctx, ds.Tree, ds.Schema)
			if err != nil {
				t.Fatal(err)
			}
			if want, got := resultJSON(t, cold), resultJSON(t, inserted); !bytes.Equal(got, want) {
				t.Fatalf("after %d inserts: warm Result differs from cold\n%s", len(inserts), diffHint(want, got))
			}
			deletes := make([]discoverxfd.Update, len(inserts))
			for i, ins := range inserts {
				deletes[i] = discoverxfd.Update{Op: discoverxfd.OpDelete, Class: ins.Class, Key: cs.Keys[i]}
			}
			if _, err := eng.ApplyUpdate(h, deletes); err != nil {
				t.Fatal(err)
			}
			last, err := eng.DiscoverHierarchy(ctx, h)
			if err != nil {
				t.Fatal(err)
			}
			if want, got := resultJSON(t, first), resultJSON(t, last); !bytes.Equal(got, want) {
				t.Errorf("%d inserts and their deletes changed the Result\n%s", len(inserts), diffHint(want, got))
			}
		})
	}
}

// choiceAbove returns the nearest Choice element strictly between the
// pivot and the leaf at path, or "" if there is none.
func choiceAbove(s *schema.Schema, path, pivot schema.Path) schema.Path {
	for p, ok := path.Parent(); ok && p != pivot; p, ok = p.Parent() {
		if el, err := s.Resolve(p); err == nil && el.Payload != nil && el.Payload.Kind == schema.Choice {
			return p
		}
	}
	return ""
}

// leafSets picks up to n distinct leaves holding a value and returns
// a batch setting each to a fresh value, and the batch setting each
// back.
func leafSets(rng *rand.Rand, h *discoverxfd.Hierarchy, tree *datatree.Tree, n int) (set, inverse []discoverxfd.Update) {
	var essential []*relation.Relation
	for _, r := range h.Relations {
		if r.Essential && r.NRows() > 0 {
			essential = append(essential, r)
		}
	}
	used := make(map[[2]int]bool)
	for tries := 0; len(set) < n && tries < 50*n; tries++ {
		r := essential[rng.Intn(len(essential))]
		key, ai := r.Keys[rng.Intn(r.NRows())], rng.Intn(r.NAttrs())
		a := r.Attrs[ai]
		if a.Kind != relation.Leaf || used[[2]int{key, ai}] {
			continue
		}
		leaf := tree.NodeByKey(key)
		if a.Rel != "." {
			for _, label := range strings.Split(strings.TrimPrefix(string(a.Rel), "./"), "/") {
				if leaf = leaf.Child(label); leaf == nil {
					break
				}
			}
		}
		if leaf == nil || !leaf.HasValue {
			continue
		}
		used[[2]int{key, ai}] = true
		set = append(set, discoverxfd.Update{Op: discoverxfd.OpSet, Class: r.Pivot, Key: key, Attr: a.Rel, Value: scriptValue(rng, h, a)})
		inverse = append(inverse, discoverxfd.Update{Op: discoverxfd.OpSet, Class: r.Pivot, Key: key, Attr: a.Rel, Value: leaf.Value})
	}
	return set, inverse
}

// discoverJSON discovers over ds with a fresh engine and returns the
// Result JSON with times zeroed.
func discoverJSON(t *testing.T, ds xmlgen.Dataset, opts *discoverxfd.Options) []byte {
	t.Helper()
	res, err := discoverxfd.NewEngine(opts).Discover(context.Background(), ds.Tree, ds.Schema)
	if err != nil {
		t.Fatalf("%s: %v", ds.Name, err)
	}
	zeroTimes(res)
	var buf bytes.Buffer
	if err := discoverxfd.WriteJSON(&buf, res); err != nil {
		t.Fatalf("%s: %v", ds.Name, err)
	}
	return buf.Bytes()
}

package discoverxfd_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"discoverxfd"
	"discoverxfd/internal/datatree"
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

// TestShuffleSiblingsInvariant is a metamorphic property of the whole
// pipeline: the order of same-label siblings carries no meaning, so
// shuffling them must not change the Result JSON (with times zeroed),
// counters included. Result JSON names no node keys. Every generator
// runs at default scale, plus psd ×8 and a 300×8 wide table, under
// default options and with approximate FDs, each shuffled with three
// seeds.
func TestShuffleSiblingsInvariant(t *testing.T) {
	corpora := []func() xmlgen.Dataset{
		func() xmlgen.Dataset { return xmlgen.Warehouse(xmlgen.DefaultWarehouse()) },
		func() xmlgen.Dataset { return xmlgen.DBLP(xmlgen.DefaultDBLP()) },
		func() xmlgen.Dataset { return xmlgen.Auction(xmlgen.DefaultAuction()) },
		func() xmlgen.Dataset { return xmlgen.Mondial(xmlgen.DefaultMondial()) },
		func() xmlgen.Dataset { return xmlgen.Catalog(xmlgen.DefaultCatalog()) },
		func() xmlgen.Dataset { return xmlgen.PSD(xmlgen.DefaultPSD()) },
		func() xmlgen.Dataset { p := xmlgen.DefaultPSD(); p.Entries *= 8; return xmlgen.PSD(p) },
		func() xmlgen.Dataset { p := xmlgen.DefaultWide(8); p.Rows = 300; return xmlgen.Wide(p) },
	}
	for _, gen := range corpora {
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

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"discoverxfd/internal/datatree"
	"discoverxfd/internal/relation"
	"discoverxfd/internal/source/jsondoc"
	"discoverxfd/internal/xmlgen"
)

// sizes holds the input size knobs. Command-line runs use fullSize;
// the smoke tests run smokeSize so every workload finishes in about a
// second.
type sizes struct {
	psdScale     int // psd entries multiplier (psd ×8 = 1200 entries)
	wideRows     int
	wideAttrs    int
	forestTables int
	forestRows   int // rows per forest table
}

var (
	fullSize  = sizes{psdScale: 8, wideRows: 1200, wideAttrs: 12, forestTables: 8, forestRows: 1000}
	smokeSize = sizes{psdScale: 1, wideRows: 150, wideAttrs: 6, forestTables: 2, forestRows: 100}
)

// docsPerWorkload is how many distinct documents psd_cold and
// wide_lattice go through in turn.
const docsPerWorkload = 4

// relabel derives a seed-specific document from a generated one while
// keeping the work discovery does on it fixed: it permutes the
// distinct values of every leaf path among those of equal length.
// That keeps every partition of every relation — which tuples agree on
// which attribute —, the order in which values first appear, and every
// byte count, so the discovered constraints, the witness counts and
// the cost of finding them do not depend on the seed, while the values
// every layer reads do. This is what lets runs on different seeds be
// compared: drawing a fresh psd ×8 document per seed changes the FD
// count by up to a factor of two and the op cost by a quarter, and
// even reordering tuples moves discovery's allocations by 10%.
func relabel(t *datatree.Tree, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	group := func(path string, n *datatree.Node) string { return fmt.Sprintf("%s#%d", path, len(n.Value)) }

	// Distinct values per group, in document order.
	distinct := map[string][]string{}
	seen := map[string]bool{}
	var walk func(n *datatree.Node, path string, visit func(*datatree.Node, string))
	walk = func(n *datatree.Node, path string, visit func(*datatree.Node, string)) {
		path += "/" + n.Label
		if n.HasValue {
			visit(n, group(path, n))
		}
		for _, c := range n.Children {
			walk(c, path, visit)
		}
	}
	walk(t.Root, "", func(n *datatree.Node, g string) {
		if !seen[g+"="+n.Value] {
			seen[g+"="+n.Value] = true
			distinct[g] = append(distinct[g], n.Value)
		}
	})
	groups := make([]string, 0, len(distinct))
	for g := range distinct {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	to := map[string]string{}
	for _, g := range groups {
		vals := distinct[g]
		for i, j := range rng.Perm(len(vals)) {
			to[g+"="+vals[i]] = vals[j]
		}
	}
	walk(t.Root, "", func(n *datatree.Node, g string) { n.Value = to[g+"="+n.Value] })
}

func xmlBytes(t *datatree.Tree) []byte {
	var b bytes.Buffer
	if err := t.WriteXML(&b); err != nil {
		panic(fmt.Sprintf("benchmark: serializing a generated document: %v", err))
	}
	return b.Bytes()
}

// psdDocs returns the psd_cold inputs: psd ×8 documents generated from
// the generator seeds 1..4, relabelled by the run seed.
func psdDocs(seed int64, sz sizes) [][]byte {
	out := make([][]byte, docsPerWorkload)
	for i := range out {
		p := xmlgen.DefaultPSD()
		p.Entries *= sz.psdScale
		p.Seed = int64(i + 1)
		ds := xmlgen.PSD(p)
		relabel(ds.Tree, seed*docsPerWorkload+int64(i))
		out[i] = xmlBytes(ds.Tree)
	}
	return out
}

// wideDocs returns the wide_lattice inputs: flat wide tables generated
// from the generator seeds 1..4, relabelled by the run seed.
func wideDocs(seed int64, sz sizes) [][]byte {
	out := make([][]byte, docsPerWorkload)
	for i := range out {
		ds := xmlgen.Wide(xmlgen.WideParams{Rows: sz.wideRows, Attrs: sz.wideAttrs, Domain: 6, FDEvery: 3, Seed: int64(i + 1)})
		relabel(ds.Tree, seed*docsPerWorkload+int64(i))
		out[i] = xmlBytes(ds.Tree)
	}
	return out
}

// body is one serve_mix request body.
type body struct {
	name        string // dataset/format, for messages
	format      string // "xml" or "json"
	contentType string
	data        []byte
}

// serveBodies returns the serve_mix request bodies: every generator at
// its default scale and seed, relabelled by the run seed, each as XML and
// as JSON.
func serveBodies(seed int64) []body {
	gens := []struct {
		name string
		gen  func() xmlgen.Dataset
	}{
		{"warehouse", func() xmlgen.Dataset { return xmlgen.Warehouse(xmlgen.DefaultWarehouse()) }},
		{"dblp", func() xmlgen.Dataset { return xmlgen.DBLP(xmlgen.DefaultDBLP()) }},
		{"auction", func() xmlgen.Dataset { return xmlgen.Auction(xmlgen.DefaultAuction()) }},
		{"mondial", func() xmlgen.Dataset { return xmlgen.Mondial(xmlgen.DefaultMondial()) }},
		{"catalog", func() xmlgen.Dataset { return xmlgen.Catalog(xmlgen.DefaultCatalog()) }},
		{"psd", func() xmlgen.Dataset { return xmlgen.PSD(xmlgen.DefaultPSD()) }},
	}
	var out []body
	for i, g := range gens {
		ds := g.gen()
		relabel(ds.Tree, seed*int64(len(gens))+int64(i))
		var js bytes.Buffer
		if err := jsondoc.Write(&js, ds.Tree, ds.Schema); err != nil {
			panic(fmt.Sprintf("benchmark: serializing %s as JSON: %v", g.name, err))
		}
		out = append(out,
			body{name: g.name + "/xml", format: "xml", contentType: "application/xml", data: xmlBytes(ds.Tree)},
			body{name: g.name + "/json", format: "json", contentType: "application/json", data: js.Bytes()})
	}
	return out
}

// forestDoc returns the update_resident document: the wide-forest shape
// of the incremental-update experiment, relabelled by the run seed.
func forestDoc(seed int64, sz sizes) []byte {
	ds := xmlgen.WideForest(xmlgen.WideForestParams{
		Tables: sz.forestTables,
		Table:  xmlgen.WideParams{Rows: sz.forestRows, Attrs: 10, Domain: 6, FDEvery: 3, Seed: 5},
	})
	relabel(ds.Tree, seed)
	return xmlBytes(ds.Tree)
}

// patcher generates update_resident's patch scripts: each batch sets
// values on 1% of the tuples, in two leaf columns of one table chosen
// at random, to values already present in that column. Scripts depend
// only on the seed and the batch number, never on the server's
// replies.
type patcher struct {
	rng     *rand.Rand
	tables  []*relation.Relation
	domains map[string][]string // pivot + "/" + leaf label → distinct values
	perOp   int
}

func newPatcher(seed int64, h *relation.Hierarchy) *patcher {
	p := &patcher{rng: rand.New(rand.NewSource(seed)), domains: map[string][]string{}}
	rows := 0
	for _, r := range h.EssentialRelations() {
		if !strings.HasSuffix(string(r.Pivot), "/row") {
			continue
		}
		p.tables = append(p.tables, r)
		rows += r.NRows()
		seen := map[string]bool{}
		for t := 0; t < r.NRows(); t++ {
			for _, c := range r.Node(t).Children {
				k := string(r.Pivot) + "/" + c.Label
				if c.HasValue && !seen[k+"="+c.Value] {
					seen[k+"="+c.Value] = true
					p.domains[k] = append(p.domains[k], c.Value)
				}
			}
		}
	}
	p.perOp = rows / 100
	if p.perOp < 1 {
		p.perOp = 1
	}
	return p
}

type setOp struct {
	Op    string `json:"op"`
	Class string `json:"class"`
	Key   int    `json:"key"`
	Attr  string `json:"attr"`
	Value string `json:"value"`
}

// next returns the next patch script as the JSON body PATCH takes.
func (p *patcher) next() []byte {
	r := p.tables[p.rng.Intn(len(p.tables))]
	cols := p.rng.Perm(len(r.Attrs))[:2]
	rows := p.rng.Perm(r.NRows())[:p.perOp]
	ops := make([]setOp, len(rows))
	for i, row := range rows {
		a := r.Attrs[cols[p.rng.Intn(len(cols))]]
		dom := p.domains[string(r.Pivot)+"/"+a.Name()]
		ops[i] = setOp{Op: "set", Class: string(r.Pivot), Key: r.Keys[row], Attr: string(a.Rel), Value: dom[p.rng.Intn(len(dom))]}
	}
	data, err := json.Marshal(ops)
	if err != nil {
		panic(fmt.Sprintf("benchmark: encoding a patch script: %v", err))
	}
	return data
}

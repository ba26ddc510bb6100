package bench

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"discoverxfd/internal/core"
	"discoverxfd/internal/datatree"
	"discoverxfd/internal/relation"
	"discoverxfd/internal/source"
	"discoverxfd/internal/source/jsondoc"
	"discoverxfd/internal/xmlgen"
)

// SourceFormats names the document formats E16 ingests; xfdbench's
// -format flag narrows it to one. Defaults to every registered
// source.
var SourceFormats = []string{"xml", "json"}

// E16SourceParity measures the source layer: the warehouse corpus is
// serialized in each registered format (the XML original and its JSON
// twin), parsed through the format's source backend, and discovered
// through the identical engine path. The parity metric pins the
// refactor's core claim — discovery is format-agnostic, so both
// spellings yield the same constraints — while the parse columns and
// latency summaries report what each front-end costs. Parity is 1
// exactly; parse times are machine-dependent and never gated.
func E16SourceParity(quick bool) *Table {
	p := xmlgen.DefaultWarehouse()
	if !quick {
		p.States, p.BooksPerStore, p.CatalogSize = p.States*4, p.BooksPerStore*4, p.CatalogSize*4
	}
	ds := xmlgen.Warehouse(p)
	t := &Table{
		ID:        "E16",
		Title:     "Source parity: one corpus ingested per document format",
		Columns:   []string{"format", "bytes", "parse", "nodes", "tuples", "discover", "fds", "keys"},
		Metrics:   map[string]float64{},
		Stats:     map[string]core.Stats{},
		Latencies: map[string]LatencySummary{},
		Notes: []string{
			"one warehouse corpus, serialized per format, parsed through internal/source, discovered through the identical engine",
			"parity_warehouse = 1 means every format produced the same FDs, keys, and redundancies",
		},
	}

	// Serialize the corpus once per format.
	bodies := map[string][]byte{}
	var xmlBuf bytes.Buffer
	if err := ds.Tree.WriteXML(&xmlBuf); err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	bodies["xml"] = xmlBuf.Bytes()
	var jsonBuf bytes.Buffer
	if err := jsondoc.Write(&jsonBuf, ds.Tree, ds.Schema); err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	bodies["json"] = jsonBuf.Bytes()

	fingerprints := map[string]string{}
	for _, format := range SourceFormats {
		body, ok := bodies[format]
		if !ok {
			panic(fmt.Sprintf("bench: unknown source format %q", format))
		}
		src, err := source.ByFormat(format)
		if err != nil {
			panic(fmt.Sprintf("bench: %v", err))
		}

		// Best-of-3 parse through the source backend.
		bestParse := time.Duration(1<<62 - 1)
		parseSamples := make([]time.Duration, 0, 3)
		var tree *datatree.Tree
		for i := 0; i < 3; i++ {
			start := time.Now()
			tree, err = loadSourceContext(context.Background(), src, body)
			if err != nil {
				panic(fmt.Sprintf("bench: %s parse: %v", format, err))
			}
			d := time.Since(start)
			parseSamples = append(parseSamples, d)
			if d < bestParse {
				bestParse = d
			}
		}
		t.Latencies["parse_"+format] = summarizeLatency(parseSamples)

		h, err := relation.Build(tree, ds.Schema, relation.Options{})
		if err != nil {
			panic(fmt.Sprintf("bench: %s build: %v", format, err))
		}
		opts := core.Options{}
		dur, _, res, samples := bestDiscover(h, opts)
		t.Latencies["discover_"+format] = summarizeLatency(samples)
		fingerprints[format] = resultFingerprint(res)

		t.Rows = append(t.Rows, []string{
			format,
			fmt.Sprintf("%d", len(body)),
			fmtDur(bestParse),
			fmt.Sprintf("%d", tree.Size()),
			fmt.Sprintf("%d", h.TotalTuples()),
			fmtDur(dur),
			fmt.Sprintf("%d", len(res.FDs)),
			fmt.Sprintf("%d", len(res.Keys)),
		})
		t.Metrics["parse_ms_"+format] = float64(bestParse) / float64(time.Millisecond)
		t.Stats[format] = res.Stats
	}

	parity := 1.0
	for _, format := range SourceFormats {
		if fingerprints[format] != fingerprints[SourceFormats[0]] {
			parity = 0
		}
	}
	t.Metrics["parity_warehouse"] = parity
	if parity != 1 {
		t.Notes = append(t.Notes, "PARITY FAILURE: formats disagree on the discovered constraints")
	}
	return t
}

// loadSourceContext parses one serialized corpus through a source
// backend under default limits; the harness is the ...Context shim
// for its timing loops.
func loadSourceContext(ctx context.Context, src source.Source, body []byte) (*datatree.Tree, error) {
	return src.Load(ctx, bytes.NewReader(body), datatree.DefaultLimits())
}

// resultFingerprint renders the discovery outcome (everything except
// the volatile Stats) for cross-format comparison.
func resultFingerprint(res *core.Result) string {
	var b bytes.Buffer
	for _, fd := range res.FDs {
		fmt.Fprintln(&b, fd)
	}
	for _, k := range res.Keys {
		fmt.Fprintln(&b, k)
	}
	for _, r := range res.Redundancies {
		fmt.Fprintln(&b, r)
	}
	return b.String()
}

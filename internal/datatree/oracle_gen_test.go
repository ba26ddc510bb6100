package datatree_test

import (
	"bytes"
	"fmt"
	"testing"

	"discoverxfd/internal/datatree"
	"discoverxfd/internal/source/jsondoc"
	"discoverxfd/internal/xmlgen"
)

// TestIngestMatchesOracleOnGenerators runs the ingest oracle check
// over every generator at default scale, psd ×8 at generator seeds
// 1–4, and the jsondoc twin of each, whose set hints the XML trees
// never carry. A one-row table is added because repetition already
// marks every hinted path of the others as a set element; in its twin
// the hint is the only evidence.
func TestIngestMatchesOracleOnGenerators(t *testing.T) {
	datasets := []xmlgen.Dataset{
		xmlgen.Warehouse(xmlgen.DefaultWarehouse()),
		xmlgen.DBLP(xmlgen.DefaultDBLP()),
		xmlgen.Auction(xmlgen.DefaultAuction()),
		xmlgen.Mondial(xmlgen.DefaultMondial()),
		xmlgen.Catalog(xmlgen.DefaultCatalog()),
		xmlgen.PSD(xmlgen.DefaultPSD()),
		xmlgen.Wide(xmlgen.DefaultWide(12)),
		xmlgen.WideForest(xmlgen.WideForestParams{Tables: 3, Table: xmlgen.DefaultWide(6)}),
		xmlgen.Wide(xmlgen.WideParams{Rows: 1, Attrs: 4, Domain: 3, Seed: 1}),
	}
	for seed := int64(1); seed <= 4; seed++ {
		p := xmlgen.DefaultPSD()
		p.Entries *= 8
		p.Seed = seed
		ds := xmlgen.PSD(p)
		ds.Name = fmt.Sprintf("%s/seed=%d", ds.Name, seed)
		datasets = append(datasets, ds)
	}
	for _, ds := range datasets {
		t.Run(ds.Name, func(t *testing.T) {
			t.Parallel()
			datatree.CheckIngestMatchesOracle(t, ds.Tree)
			var buf bytes.Buffer
			if err := jsondoc.Write(&buf, ds.Tree, ds.Schema); err != nil {
				t.Fatalf("jsondoc.Write: %v", err)
			}
			twin, err := jsondoc.Parse(&buf)
			if err != nil {
				t.Fatalf("jsondoc.Parse: %v", err)
			}
			if len(twin.SetHints()) == 0 {
				t.Fatal("the JSON twin carries no set hints")
			}
			datatree.CheckIngestMatchesOracle(t, twin)
		})
	}
}

package core

import (
	"strings"
	"testing"

	"discoverxfd/internal/relation"
	"discoverxfd/internal/xmlgen"
)

// TestStreamedDiscoveryMatchesInMemory round-trips every generator
// dataset through its XML serialization into the streaming builder
// and requires identical discovery output to the in-memory path.
func TestStreamedDiscoveryMatchesInMemory(t *testing.T) {
	sets := []xmlgen.Dataset{
		xmlgen.Warehouse(xmlgen.DefaultWarehouse()),
		xmlgen.DBLP(xmlgen.DefaultDBLP()),
		xmlgen.PSD(xmlgen.DefaultPSD()),
		xmlgen.Auction(xmlgen.DefaultAuction()),
		xmlgen.Mondial(xmlgen.DefaultMondial()),
		xmlgen.Catalog(xmlgen.DefaultCatalog()),
	}
	for _, ds := range sets {
		mem, err := relation.Build(ds.Tree, ds.Schema, relation.Options{})
		if err != nil {
			t.Fatalf("%s: %v", ds.Name, err)
		}
		str, err := relation.BuildStream(strings.NewReader(ds.Tree.XMLString()), ds.Schema, relation.Options{})
		if err != nil {
			t.Fatalf("%s: stream build: %v", ds.Name, err)
		}
		resMem, err := discoverCold(mem, Options{})
		if err != nil {
			t.Fatal(err)
		}
		resStr, err := discoverCold(str, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := render(resStr), render(resMem); got != want {
			t.Errorf("%s: streamed discovery differs\n--- in-memory ---\n%s\n--- streamed ---\n%s", ds.Name, want, got)
		}
	}
}

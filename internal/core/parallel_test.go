package core

import (
	"fmt"
	"testing"

	"discoverxfd/internal/relation"
	"discoverxfd/internal/xmlgen"
)

// TestParallelMatchesSerial checks that parallel discovery produces
// exactly the serial result (FDs, Keys, approximate FDs, redundancy
// witnesses) on every generator dataset, and that the level
// precompute, which a wide table's 400 rows turn on, performs exactly
// the serial products.
func TestParallelMatchesSerial(t *testing.T) {
	sets := []xmlgen.Dataset{
		xmlgen.Warehouse(xmlgen.DefaultWarehouse()),
		xmlgen.Auction(xmlgen.DefaultAuction()),
		xmlgen.Mondial(xmlgen.DefaultMondial()),
		xmlgen.PSD(xmlgen.DefaultPSD()),
		xmlgen.Wide(xmlgen.DefaultWide(10)),
	}
	for _, ds := range sets {
		h, err := relation.Build(ds.Tree, ds.Schema, relation.Options{})
		if err != nil {
			t.Fatalf("%s: %v", ds.Name, err)
		}
		serial, err := discoverCold(h, Options{ApproxError: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := discoverCold(h, Options{ApproxError: 0.05, Parallel: true})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := render(parallel), render(serial); got != want {
			t.Errorf("%s: parallel result differs from serial\nserial:\n%s\nparallel:\n%s", ds.Name, want, got)
		}
		if parallel.Stats.Relations != serial.Stats.Relations ||
			parallel.Stats.Tuples != serial.Stats.Tuples ||
			parallel.Stats.NodesVisited != serial.Stats.NodesVisited ||
			parallel.Stats.PartitionsComputed != serial.Stats.PartitionsComputed {
			t.Errorf("%s: stats mismatch: %+v vs %+v", ds.Name, parallel.Stats, serial.Stats)
		}
	}
}

func render(res *Result) string {
	s := ""
	for i, fd := range res.FDs {
		s += fmt.Sprintf("FD %s w=%d\n", fd, res.Redundancies[i].RedundantValues)
	}
	for _, k := range res.Keys {
		s += "KEY " + k.String() + "\n"
	}
	for _, fd := range res.ApproxFDs {
		s += "APPROX " + fd.String() + "\n"
	}
	return s
}

// TestParallelRace runs parallel discovery repeatedly so `go test
// -race` can catch sharing bugs across sibling subtrees.
func TestParallelRace(t *testing.T) {
	ds := xmlgen.Auction(xmlgen.DefaultAuction())
	h, err := relation.Build(ds.Tree, ds.Schema, relation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := discoverCold(h, Options{Parallel: true}); err != nil {
			t.Fatal(err)
		}
	}
}

// Command xfdgen emits the synthetic datasets of the experiment
// harness as XML, for use with the discoverxfd CLI or any other
// tool.
//
// Usage:
//
//	xfdgen -dataset warehouse -scale 2 -seed 7 > warehouse.xml
//
// Datasets: warehouse, dblp, psd, auction, mondial, catalog, wide.
package main

import (
	"flag"
	"fmt"
	"os"

	"discoverxfd/internal/xmlgen"
)

func main() {
	name := flag.String("dataset", "warehouse", "dataset: warehouse|dblp|psd|auction|mondial|catalog|wide")
	scale := flag.Int("scale", 1, "size multiplier")
	seed := flag.Int64("seed", 0, "override the dataset's default seed (0 = default)")
	sets := flag.Int("sets", 4, "psd only: number of unrelated set elements (1..4)")
	width := flag.Int("width", 8, "wide only: attributes per row")
	fdEvery := flag.Int("fdevery", 3, "wide only: inject a_i -> a_{i+1} for every i divisible by this (0 = no injected FD, so nothing prunes)")
	truth := flag.Bool("truth", false, "print the injected ground-truth constraints to stderr")
	flag.Parse()

	var ds xmlgen.Dataset
	switch *name {
	case "warehouse":
		p := xmlgen.DefaultWarehouse()
		p.States *= *scale
		if *seed != 0 {
			p.Seed = *seed
		}
		ds = xmlgen.Warehouse(p)
	case "dblp":
		p := xmlgen.DefaultDBLP()
		p.Venues *= *scale
		if *seed != 0 {
			p.Seed = *seed
		}
		ds = xmlgen.DBLP(p)
	case "psd":
		p := xmlgen.DefaultPSD()
		p.Entries *= *scale
		p.UnrelatedSets = *sets
		if *seed != 0 {
			p.Seed = *seed
		}
		ds = xmlgen.PSD(p)
	case "auction":
		p := xmlgen.DefaultAuction()
		p.Factor = *scale
		if *seed != 0 {
			p.Seed = *seed
		}
		ds = xmlgen.Auction(p)
	case "mondial":
		p := xmlgen.DefaultMondial()
		p.Countries *= *scale
		if *seed != 0 {
			p.Seed = *seed
		}
		ds = xmlgen.Mondial(p)
	case "catalog":
		p := xmlgen.DefaultCatalog()
		p.Products *= *scale
		if *seed != 0 {
			p.Seed = *seed
		}
		ds = xmlgen.Catalog(p)
	case "wide":
		p := xmlgen.DefaultWide(*width)
		p.Rows *= *scale
		p.FDEvery = *fdEvery
		if *seed != 0 {
			p.Seed = *seed
		}
		ds = xmlgen.Wide(p)
	default:
		fmt.Fprintf(os.Stderr, "xfdgen: unknown dataset %q\n", *name)
		os.Exit(2)
	}

	if *truth {
		fmt.Fprintf(os.Stderr, "# %s\n", ds.Name)
		for _, c := range ds.GroundTruth {
			fmt.Fprintf(os.Stderr, "# %s\n", c)
		}
	}
	if err := ds.Tree.WriteXML(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "xfdgen: %v\n", err)
		os.Exit(1)
	}
}

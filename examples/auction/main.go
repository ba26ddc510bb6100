// Auction: scalability on an XMark-style benchmark document, using
// the public API the way a capacity-planning user would — sweep the
// scale factor and watch discovery stay near-linear in the number of
// tuples (the paper's headline claim), then drill into one discovered
// inter-relation constraint.
//
//	go run ./examples/auction
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"discoverxfd"
	"discoverxfd/internal/xmlgen"
)

func main() {
	eng := discoverxfd.NewEngine(nil)
	ctx := context.Background()
	fmt.Println("scale   nodes   tuples   FDs   keys   time      µs/tuple")
	for _, factor := range []int{1, 2, 4, 8} {
		ds := xmlgen.Auction(xmlgen.AuctionParams{Factor: factor, Seed: 4})
		h, err := eng.BuildHierarchy(ctx, ds.Tree, ds.Schema)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		res, err := eng.DiscoverHierarchy(ctx, h)
		if err != nil {
			log.Fatal(err)
		}
		dur := time.Since(start)
		fmt.Printf("x%-6d %-7d %-8d %-5d %-6d %-9s %.1f\n",
			factor, ds.Tree.Size(), h.TotalTuples(), len(res.FDs), len(res.Keys),
			dur.Round(10*time.Microsecond), float64(dur.Microseconds())/float64(h.TotalTuples()))
	}

	// Drill into one run: the bid-level inter-relation constraint
	// {../itemref, ./personref} -> ./increase spans two hierarchy
	// levels — a person's standing increase on an item is fixed
	// across that item's auctions.
	ds := xmlgen.Auction(xmlgen.AuctionParams{Factor: 2, Seed: 4})
	res, err := eng.Discover(ctx, ds.Tree, ds.Schema)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ninter-relation FDs at scale x2:")
	for _, fd := range res.FDs {
		if fd.Inter {
			fmt.Printf("  %s\n", fd)
		}
	}
}

// Anomaly: the update-anomaly workflow the paper's introduction warns
// about. Discover the constraints a trusted version of the data
// satisfies, simulate a careless single-copy update, then (a) get an
// update advisory listing the companion copies that should have
// changed too, and (b) detect the inconsistency after the fact.
//
//	go run ./examples/anomaly
package main

import (
	"context"
	"fmt"
	"log"

	"discoverxfd"
)

const v1 = `
<warehouse>
  <state><name>WA</name>
    <store>
      <contact><name>Borders</name><address>Seattle</address></contact>
      <book><ISBN>0072465638</ISBN><author>Ramakrishnan</author><author>Gehrke</author>
            <title>DBMS</title><price>129.99</price></book>
    </store>
  </state>
  <state><name>KY</name>
    <store>
      <contact><name>Borders</name><address>Lexington</address></contact>
      <book><ISBN>0072465638</ISBN><author>Gehrke</author><author>Ramakrishnan</author>
            <title>DBMS</title><price>129.99</price></book>
      <book><ISBN>0596000278</ISBN><author>Harold</author><author>Means</author>
            <title>XML in a Nutshell</title><price>39.95</price></book>
    </store>
  </state>
</warehouse>`

const warehouseSchema = `
warehouse: Rcd
  state: SetOf Rcd
    name: str
    store: SetOf Rcd
      contact: Rcd
        name: str
        address: str
      book: SetOf Rcd
        ISBN: str
        author: SetOf str
        title: str
        price: str
`

func main() {
	doc, err := discoverxfd.ParseDocument(v1)
	if err != nil {
		log.Fatal(err)
	}
	// Pin the declared schema: inference cannot know book is a set
	// element when each store happens to hold a single book.
	s, err := discoverxfd.ParseSchema(warehouseSchema)
	if err != nil {
		log.Fatal(err)
	}
	eng := discoverxfd.NewEngine(nil)
	ctx := context.Background()
	h, err := eng.BuildHierarchy(ctx, doc, s)
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.DiscoverHierarchy(ctx, h)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("v1 satisfies %d redundancy-indicating FDs; pinning them as invariants.\n", len(res.FDs))

	// An editor wants to retitle the Seattle copy of ISBN 0072465638.
	// Ask for the advisory first: which other copies must change too?
	book := discoverxfd.Path("/warehouse/state/store/book")
	fd, err := discoverxfd.ParseFD("{./ISBN} -> ./title w.r.t. C(" + string(book) + ")")
	if err != nil {
		log.Fatal(err)
	}
	target := doc.NodesAt(book)[0]
	companions, err := discoverxfd.AdviseUpdate(h, fd, target.Key)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nupdating ./title of book node %d also requires updating:\n", target.Key)
	for _, o := range companions {
		fmt.Printf("  node %d (%s): currently %q\n", o.PivotKey, o.PivotPath, o.Value)
	}

	// The editor ignores the advisory and updates only one copy.
	target.Child("title").Value = "Database Management Systems (3rd ed.)"
	doc.Renumber()

	// Re-check the pinned invariants on the updated document.
	var lines string
	for _, f := range res.FDs {
		lines += f.String() + "\n"
	}
	cs, err := discoverxfd.ParseConstraints(lines)
	if err != nil {
		log.Fatal(err)
	}
	h2, err := eng.BuildHierarchy(ctx, doc, s)
	if err != nil {
		log.Fatal(err)
	}
	violations, err := discoverxfd.DetectAnomalies(h2, cs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter the careless update, %d invariant(s) are violated:\n\n", len(violations))
	for _, v := range violations {
		fmt.Println(v)
		fmt.Println()
	}
}

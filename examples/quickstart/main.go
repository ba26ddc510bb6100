// Quickstart: parse a small XML document, infer its schema, discover
// the functional dependencies and redundancies it contains, and print
// the report.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"discoverxfd"
)

const doc = `
<library>
  <shelf>
    <room>North</room>
    <book><isbn>1</isbn><title>Go</title><publisher>Addison</publisher></book>
    <book><isbn>2</isbn><title>XML</title><publisher>Wiley</publisher></book>
  </shelf>
  <shelf>
    <room>South</room>
    <book><isbn>1</isbn><title>Go</title><publisher>Addison</publisher></book>
    <book><isbn>3</isbn><title>SQL</title><publisher>Wiley</publisher></book>
  </shelf>
</library>`

func main() {
	// Parse the document into the paper's data-tree model.
	d, err := discoverxfd.ParseDocument(doc)
	if err != nil {
		log.Fatal(err)
	}

	// The schema is inferred: book repeats under shelf, so it becomes
	// a set element; isbn/title/publisher are leaf elements.
	s, err := discoverxfd.InferSchema(d)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("inferred schema:")
	fmt.Println(s)

	// Discover all minimal interesting XML FDs, keys, and the
	// redundancies the FDs indicate. ISBN 1 is shelved twice, so
	// {./isbn} -> ./title (and -> ./publisher) witness redundant
	// storage. An Engine runs every pipeline stage; nil options are
	// the defaults.
	res, err := discoverxfd.NewEngine(nil).Discover(context.Background(), d, s)
	if err != nil {
		log.Fatal(err)
	}
	discoverxfd.WriteReport(os.Stdout, res)
}

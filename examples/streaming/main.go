// Streaming: discover redundancies in a document far larger than you
// want to hold in memory. A streamed build consumes one
// root-child subtree at a time, so resident memory tracks the
// hierarchical representation (columns of integer codes) rather than
// the XML tree; discovery output is identical to the in-memory path.
//
//	go run ./examples/streaming
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"runtime"
	"time"

	"discoverxfd"
	"discoverxfd/internal/xmlgen"
)

func main() {
	// A larger auction document, serialized once so both paths read
	// identical bytes.
	ds := xmlgen.Auction(xmlgen.AuctionParams{Factor: 16, Seed: 4})
	xml := ds.Tree.XMLString()
	fmt.Printf("document: %.1f MB, %d nodes\n\n", float64(len(xml))/1e6, ds.Tree.Size())

	type outcome struct {
		fds, keys int
		dur       time.Duration
		heapMB    float64
	}
	run := func(name string, f func() (*discoverxfd.Result, error)) outcome {
		runtime.GC()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		res, err := f()
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		dur := time.Since(start)
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		return outcome{
			fds: len(res.FDs), keys: len(res.Keys), dur: dur,
			heapMB: float64(after.TotalAlloc-before.TotalAlloc) / 1e6,
		}
	}

	eng := discoverxfd.NewEngine(nil)
	ctx := context.Background()
	mem := run("in-memory", func() (*discoverxfd.Result, error) {
		doc, err := discoverxfd.ParseDocument(xml)
		if err != nil {
			return nil, err
		}
		return eng.Discover(ctx, doc, ds.Schema)
	})
	str := run("streamed", func() (*discoverxfd.Result, error) {
		return eng.DiscoverStream(ctx, newSlowReader(xml), ds.Schema)
	})

	fmt.Printf("%-10s %6s %6s %10s %12s\n", "mode", "FDs", "keys", "time", "allocated")
	fmt.Printf("%-10s %6d %6d %10s %9.1f MB\n", "in-memory", mem.fds, mem.keys, mem.dur.Round(time.Millisecond), mem.heapMB)
	fmt.Printf("%-10s %6d %6d %10s %9.1f MB\n", "streamed", str.fds, str.keys, str.dur.Round(time.Millisecond), str.heapMB)
	if mem.fds != str.fds || mem.keys != str.keys {
		log.Fatal("streamed and in-memory discovery disagree!")
	}
	fmt.Println("\nidentical results; the streamed path never held the whole tree.")
}

// newSlowReader returns the document as an io.Reader in small chunks,
// the way a network or file stream would arrive.
func newSlowReader(s string) io.Reader { return &chunkReader{s: s, chunk: 64 << 10} }

type chunkReader struct {
	s     string
	pos   int
	chunk int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if c.pos >= len(c.s) {
		return 0, io.EOF
	}
	n := len(p)
	if n > c.chunk {
		n = c.chunk
	}
	if c.pos+n > len(c.s) {
		n = len(c.s) - c.pos
	}
	copy(p, c.s[c.pos:c.pos+n])
	c.pos += n
	return n, nil
}

package core

import (
	"sort"

	"discoverxfd/internal/partition"
)

// record writes cache state outside pcache.go.
func record(c *partitionCache) {
	c.hits++ // want "write to partitionCache.hits outside its declaring file"
}

func stash(rp *relPartitions, a string, p *partition.Partition) {
	rp.parts[a] = p // want "write to relPartitions.parts outside its declaring file"
}

// mutate writes a Partition field outside the partition package — no
// constructor shape can excuse it here.
func mutate(p *partition.Partition) {
	p.NRows = 1 // want "write to Partition.NRows"
}

// sortGroup writes into a cached partition's rows through the view
// Group returns.
func sortGroup(p *partition.Partition) {
	g := p.Group(0)
	p.Group(0)[0], p.Group(0)[1] = g[1], g[0] // want "write through Partition.Group" "write through Partition.Group"
}

// swapRows writes into the rows through variables bound to the view.
func swapRows(p *partition.Partition) {
	g := p.Group(0)
	g[0], g[1] = g[1], g[0] // want "write through Partition.Group" "write through Partition.Group"
	var h = p.Group(1)
	h[0]++         // want "write through Partition.Group"
	g = p.Group(2) // rebinding the variable writes nothing
}

// readGroup only reads the view.
func readGroup(p *partition.Partition) int32 {
	g := p.Group(1)
	return p.Group(0)[0] + g[0]
}

func suppressedStash(rp *relPartitions, a string, p *partition.Partition) {
	//lint:partimmut fixture models a migration shim documented in pcache.go
	rp.parts[a] = p
}

// reads of cache state are fine anywhere.
func hitRate(c *partitionCache) int {
	return c.hits
}

// emitSorted is the canonical collect-then-sort shape detorder
// accepts inside internal/core.
func emitSorted(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// emitUnsorted leaks map order into its result.
func emitUnsorted(m map[string]int) []string {
	var keys []string
	for k := range m { // want "map iteration on an output path"
		keys = append(keys, k)
	}
	return keys
}

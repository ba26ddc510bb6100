package core

import (
	"maps"

	"discoverxfd/internal/partition"
	"discoverxfd/internal/relation"
)

// partitionCache is the partition store shared by one discovery run.
// It is keyed two ways: by relation (Relation.Index), then by
// canonical attribute set (the AttrSet bitset), and it outlives any
// single lattice traversal, so partitions computed level by level are
// reused by the approximate pass and by the post-traversal FD
// verification, across the whole bottom-up relation-tree walk.
//
// Concurrency contract: a run's traversal, verify and assemble use
// the cache on one goroutine, so nothing in it is locked. The level
// precompute's product workers never touch it: the traversal resolves
// their operands before they start and installs their products after
// it has joined them.
//
// Memory contract: maxBytes (Options.MaxPartitionBytes) caps the
// estimated bytes *retained* across relations: partitions and the
// derived lookups (group ids, null maps) a store holds. The active
// relation's working set is never evicted mid-traversal (the
// level-wise search needs its previous level; MaxLatticeLevel is the
// lever for bounding that). Instead, when a relation's traversal
// finishes, retire trims completed stores down to their column
// partitions — everything a later phase needs again can be recomputed
// from those, so eviction affects speed, never results.
type partitionCache struct {
	maxBytes int64
	rels     []*relPartitions // by Relation.Index

	retired   []*relPartitions
	bytes     int64
	peak      int64
	evictions int64
}

// relPartitions holds one relation's cached partitions and derived
// lookups.
type relPartitions struct {
	rel   *relation.Relation
	parts map[AttrSet]*partition.Partition
	gids  map[AttrSet][]int32
	nulls map[AttrSet][]bool
	bytes int64

	// shared marks parts as the warm map seed installed, which other
	// runs may be reading: own copies it before the store's first
	// write.
	shared bool

	// hits/misses count this store's lookups: per-lattice-level trace
	// events read them for a hit rate, and flushStats sums them into
	// the run's counters.
	hits, misses int
}

// newPartitionCache returns an empty cache for a hierarchy of nrels
// relations.
func newPartitionCache(nrels int, maxBytes int64) *partitionCache {
	return &partitionCache{maxBytes: maxBytes, rels: make([]*relPartitions, nrels)}
}

// store returns (creating on first use) the relation's partition
// store.
func (c *partitionCache) store(rel *relation.Relation) *relPartitions {
	rp := c.rels[rel.Index]
	if rp == nil {
		rp = newStore(rel, make(map[AttrSet]*partition.Partition, 4*rel.NAttrs()))
		c.rels[rel.Index] = rp
	}
	return rp
}

// newStore returns a store over parts with no derived lookups yet.
func newStore(rel *relation.Relation, parts map[AttrSet]*partition.Partition) *relPartitions {
	return &relPartitions{
		rel:   rel,
		parts: parts,
		gids:  make(map[AttrSet][]int32),
		nulls: make(map[AttrSet][]bool),
	}
}

// own gives the store a private copy of a seeded warm map before its
// first write.
func (rp *relPartitions) own() {
	if rp.shared {
		rp.parts, rp.shared = maps.Clone(rp.parts), false
	}
}

// add accounts n bytes of a newly cached partition or lookup to the
// store and the cache.
func (c *partitionCache) add(rp *relPartitions, n int64) {
	rp.bytes += n
	c.charge(n)
}

// charge adds n to the cache-wide byte total, tracking the peak.
func (c *partitionCache) charge(n int64) {
	c.bytes += n
	c.peak = max(c.peak, c.bytes)
}

// seed pre-populates the cache from h's warm entry: the
// immutable partition maps, by Relation.Index, that a previous run
// over h retained. Each store reads its warm map in place and copies
// it only before its first write (see own), so concurrent runs share
// the maps and never write them, and a relation the run replays costs
// only its byte charge: the seeded bytes are charged to this run's
// budget so retire still trims them under a tight MaxPartitionBytes.
// Seeded entries bump neither hit nor miss counters; subsequent
// lookups count as plain hits.
func (c *partitionCache) seed(h *relation.Hierarchy, warm []map[AttrSet]*partition.Partition) {
	for i, parts := range warm {
		if parts == nil {
			continue
		}
		rp := newStore(h.Relations[i], parts)
		rp.shared = true
		for _, p := range parts {
			rp.bytes += p.MemBytes()
		}
		c.charge(rp.bytes)
		c.rels[i] = rp
	}
}

// snapshot returns every relation store's partition map, by
// Relation.Index, for the run's warm entry, or nil if no store
// holds any. The maps are handed over, not copied: a store's map is
// private, or the very warm map it was seeded with and never wrote,
// and the Engine publishes only after execute has returned, so this
// run never writes to them again. Partitions are immutable after
// construction, so later runs may read the snapshot unsynchronized.
func (c *partitionCache) snapshot() []map[AttrSet]*partition.Partition {
	var out []map[AttrSet]*partition.Partition
	for i, rp := range c.rels {
		if rp == nil || len(rp.parts) == 0 {
			continue
		}
		if out == nil {
			out = make([]map[AttrSet]*partition.Partition, len(c.rels))
		}
		out[i] = rp.parts
	}
	return out
}

// retire marks a relation's traversal (and approximate pass, if any)
// complete. If the cache is over budget, completed stores are trimmed
// to their single-column partitions, oldest retirees first; derived
// lookups (group ids, null maps) are dropped with them. The partition
// needed later worst-case is rebuilt from the retained columns.
func (c *partitionCache) retire(rp *relPartitions) {
	c.retired = append(c.retired, rp)
	if c.maxBytes <= 0 {
		return
	}
	for i := 0; c.bytes > c.maxBytes && i < len(c.retired); i++ {
		c.trim(c.retired[i])
	}
}

// trim drops a retired store's multi-attribute partitions and derived
// lookups, keeping the column partitions (cheap, always reusable).
func (c *partitionCache) trim(rp *relPartitions) {
	rp.own()
	freed := int64(0)
	evicted := int64(0)
	for a, p := range rp.parts {
		if a.Size() <= 1 {
			continue
		}
		freed += p.MemBytes()
		evicted++
		delete(rp.parts, a)
	}
	for _, g := range rp.gids {
		freed += gidsBytes(g)
	}
	for _, nl := range rp.nulls {
		freed += int64(len(nl))
	}
	rp.bytes -= freed
	c.bytes -= freed
	c.evictions += evicted
	rp.gids = make(map[AttrSet][]int32)
	rp.nulls = make(map[AttrSet][]bool)
}

// install caches a partition computed outside partitionOf — the level
// precompute — preserving partitionOf's counter semantics (each
// installed partition is one cache miss). Like every store mutation it
// runs on the traversal goroutine; the xfdlint partimmut analyzer
// keeps cache writes confined to this file.
func (c *partitionCache) install(rp *relPartitions, a AttrSet, p *partition.Partition) {
	rp.own()
	rp.parts[a] = p
	c.add(rp, p.MemBytes())
	rp.misses++
}

// gidsOf returns the cached row→group lookup for Π_A, running compute
// on first use. The lookup is charged to the cache like a partition,
// and trim refunds it when it drops the store's lookups.
func (c *partitionCache) gidsOf(rp *relPartitions, a AttrSet, compute func() []int32) []int32 {
	if g, ok := rp.gids[a]; ok {
		return g
	}
	g := compute()
	rp.gids[a] = g
	c.add(rp, gidsBytes(g))
	return g
}

// gidsBytes is the charge for a cached group-id lookup.
func gidsBytes(g []int32) int64 { return 4 * int64(len(g)) }

// nullsOf is gidsOf for the per-row missing-value lookup of an
// attribute set, charged one byte a row.
func (c *partitionCache) nullsOf(rp *relPartitions, a AttrSet, compute func() []bool) []bool {
	if nl, ok := rp.nulls[a]; ok {
		return nl
	}
	nl := compute()
	rp.nulls[a] = nl
	c.add(rp, int64(len(nl)))
	return nl
}

// flushStats copies the cache counters into a Stats record, summing
// the stores' lookup counts.
func (c *partitionCache) flushStats(st *Stats) {
	st.PartitionCacheHits, st.PartitionCacheMisses = 0, 0
	for _, rp := range c.rels {
		if rp != nil {
			st.PartitionCacheHits += rp.hits
			st.PartitionCacheMisses += rp.misses
		}
	}
	st.PartitionCacheEvictions = int(c.evictions)
	st.PartitionCachePeakBytes = c.peak
}

// partitionOf returns Π_A for the store's relation, computing missing
// entries by stripped products of cached sub-partitions (the same
// recurrence the lattice uses), charging computed partitions to the
// cache. Column partitions (|A| = 1) use the relation's interned
// dense codes unless naive forces the generic hashing build. st (if
// non-nil) has PartitionsComputed bumped per product, preserving the
// counter's pre-cache meaning.
func (c *partitionCache) partitionOf(rp *relPartitions, a AttrSet, sc *partition.Scratch, naive bool, st *Stats) *partition.Partition {
	if p, ok := rp.parts[a]; ok {
		rp.hits++
		return p
	}
	rp.misses++
	var p *partition.Partition
	switch {
	case a == 0:
		p = partition.Single(rp.rel.NRows())
	case a.Size() == 1:
		i := a.MaxBit()
		if naive {
			p = partition.FromCodes(rp.rel.Cols[i])
		} else {
			p = rp.rel.ColumnPartition(i)
		}
	default:
		rest, ids := c.operands(rp, a, sc, naive, st)
		p = rest.Product(ids, sc)
		if st != nil {
			st.PartitionsComputed++
		}
	}
	rp.own()
	rp.parts[a] = p
	c.add(rp, p.MemBytes())
	return p
}

// operands resolves the factors of Π_A's product for |A| ≥ 2, with b
// the largest attribute of A: Π_{A∖b}, and the row→group ids of Π_b
// from the store's group-id map. Both partitions are looked up through
// the cache, so each counts its hit or miss.
func (c *partitionCache) operands(rp *relPartitions, a AttrSet, sc *partition.Scratch, naive bool, st *Stats) (*partition.Partition, []int32) {
	b := AttrSet(0).Add(a.MaxBit())
	rest := c.partitionOf(rp, a.Without(a.MaxBit()), sc, naive, st)
	pb := c.partitionOf(rp, b, sc, naive, st)
	return rest, c.gidsOf(rp, b, pb.GroupIDs)
}

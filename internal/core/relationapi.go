package core

import (
	"discoverxfd/internal/relation"
)

// DiscoverRelation runs DiscoverFD (Figure 8) on a single relation in
// isolation: the level-wise attribute-set lattice traversal with the
// paper's pruning rules, yielding the minimal satisfied FDs and
// minimal Keys of that relation. This is the routine applied to the
// flat (fully unnested) representation to realize the "apply an
// existing relational FD discovery algorithm" baseline of Section 4.1.
// Relations wider than 64 attributes are rejected (the bitset
// lattice's limit).
func DiscoverRelation(rel *relation.Relation, opts Options) ([]FD, []Key, Stats, error) {
	var stats Stats
	if err := checkWidth(rel); err != nil {
		return nil, nil, stats, err
	}
	stats.Relations = 1
	stats.Tuples = rel.NRows()
	opts.NoInterRelation = true // DiscoverFD: no partition targets
	cache := newPartitionCache(rel.Index+1, opts.MaxPartitionBytes)
	lr := &latticeRun{rel: rel, opts: &opts, stats: &stats, cache: cache}
	lr.run()
	cache.retire(lr.pc)
	lr.close()
	cache.flushStats(&stats)

	out := lr.output()
	in := newLHSInterner()
	fds := in.minimizeFDs(out.fds)
	keys := in.minimizeKeys(out.keys)
	sortFDs(fds)
	sortKeys(keys)
	return fds, keys, stats, nil
}

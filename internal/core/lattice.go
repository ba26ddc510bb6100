package core

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"

	"discoverxfd/internal/partition"
	"discoverxfd/internal/relation"
	"discoverxfd/internal/trace"
)

// edge is a satisfied intra-relation FD LHS → rhs used for pruning.
type edge struct {
	lhs AttrSet
	rhs int
}

// relOutput is one essential relation's contribution to a run, in
// public form: its intra- then inter-relation FDs and keys, its
// approximate FDs, and the outgoing targets it hands to its parent.
// It is immutable once the relation finishes, so the Engine's warm
// layer replays it as is.
type relOutput struct {
	fds    []FD
	keys   []Key
	approx []FD
	out    []*target
}

// latticeRun performs the level-wise attribute-set traversal of one
// relation (Figure 8 / Figure 9), optionally checking and generating
// partition targets.
type latticeRun struct {
	rel      *relation.Relation
	opts     *Options
	stats    *Stats
	depths   []int // hierarchy depth per relation, indexed by Relation.Index
	incoming []*target

	// gov is the run's resource governor (nil in ungoverned tests):
	// cancellation aborts the traversal with err set; an expired
	// wall-clock budget stops it early keeping the partial output.
	gov *governor
	err error

	// ni governs whether two buckets of a target meeting at one parent
	// row can still be told apart vacuously, by a missing value at or
	// above the parent relation.
	ni nullInfo

	// cache is the run-shared partition cache; pc is this relation's
	// store within it (acquired at the start of run, retired by the
	// caller once the approximate pass is done with it too).
	cache *partitionCache
	pc    *relPartitions
	sc    *partition.Scratch

	// ts is the scratch of target creation, conversion and checks.
	ts targetScratch

	// fds and keys are the satisfied intra-relation FDs and the keys
	// found, which also drive pruning; interFDs and interKeys are what
	// incoming targets completed here; outgoing are the targets for
	// the parent relation.
	fds       []edge
	keys      []AttrSet
	interFDs  []FD
	interKeys []Key
	outgoing  []*target

	// Buffers kept for the relation's whole traversal: lhs holds
	// candidateLHS's result, jobs a level precompute's products, wsc
	// the scratch of each product worker after the first (returned in
	// close), and nullRows each column's missing-value rows, indexed by
	// the first nullsFor.
	lhs      []AttrSet
	jobs     []productJob
	wsc      []*partition.Scratch
	nullRows [][]int32
}

// output converts the traversal's findings into the relation's
// relOutput (without approximate FDs). Constant FDs (empty LHS) are
// kept only under Options.KeepConstantFDs.
func (lr *latticeRun) output() *relOutput {
	o := &relOutput{
		fds:  make([]FD, 0, len(lr.fds)+len(lr.interFDs)),
		keys: make([]Key, 0, len(lr.keys)+len(lr.interKeys)),
		out:  lr.outgoing,
	}
	for _, e := range lr.fds {
		if e.lhs != 0 || lr.opts.KeepConstantFDs {
			o.fds = append(o.fds, intraFD(lr.rel, e))
		}
	}
	for _, k := range lr.keys {
		o.keys = append(o.keys, intraKey(lr.rel, k))
	}
	o.fds = append(o.fds, lr.interFDs...)
	o.keys = append(o.keys, lr.interKeys...)
	return o
}

// close releases pooled resources; the latticeRun (and its partition
// store) stay readable.
func (lr *latticeRun) close() {
	partition.PutScratch(lr.sc)
	for _, sc := range lr.wsc {
		partition.PutScratch(sc)
	}
	lr.sc, lr.wsc = nil, nil
}

// run executes the traversal: DiscoverXFD behaviour (candidateLHS2,
// target handling), or exactly DiscoverFD of Figure 8 under
// Options.NoInterRelation and for a relation that can neither create
// nor receive a partition target: one that is doomed (every target it
// seeds would be dropped) with no incoming targets. Such a relation's
// only outputs are its intra FDs and keys, for which Figure 8's rule 2
// is sound, so it prunes with both rules and skips the target work.
func (lr *latticeRun) run() {
	rel := lr.rel
	xfd := !lr.opts.NoInterRelation
	if rel.Parent != nil && len(lr.incoming) == 0 && lr.doomed() {
		xfd = false
	}
	n := rel.NRows()
	m := rel.NAttrs()
	lr.pc = lr.cache.store(rel)
	lr.sc = partition.GetScratch(n)

	// Intra time is the traversal's elapsed time less its target work,
	// measured once whichever way run returns; lr.stats is the
	// relation's own slot, so its InterTime is this traversal's alone.
	start := time.Now()
	defer func() { lr.stats.IntraTime = time.Since(start) - lr.stats.InterTime }()
	for i := 0; i < m; i++ {
		lr.getPartition(AttrSet(0).Add(i))
	}

	// Pure conversions of incoming targets (Figure 9 lines 8–10):
	// every target is offered to the parent unchanged, so ancestors
	// alone may complete it.
	if xfd && rel.Parent != nil {
		ts := time.Now()
		for _, pt := range lr.incoming {
			if lr.admit() {
				lr.emit(pt.convert(rel, 0, nil, nil, lr.ni, &lr.ts, lr.opts, lr.stats))
			}
		}
		lr.stats.InterTime += time.Since(ts)
	}

	if n < 2 || m == 0 {
		// Nothing can be violated or witnessed with fewer than two
		// tuples; incoming targets were still offered upward above.
		return
	}

	// The empty attribute set can itself be a candidate partial Key:
	// if every parent has at most one tuple here, ancestor attributes
	// alone may identify the tuples of this class.
	if xfd && rel.Parent != nil {
		lr.seedKeyTarget(0, lr.getPartition(0))
	}

	maxSize := m
	if lr.opts.MaxLHS > 0 && lr.opts.MaxLHS+1 < maxSize {
		maxSize = lr.opts.MaxLHS + 1
	}
	if lr.opts.MaxLatticeLevel > 0 && maxSize > lr.opts.MaxLatticeLevel {
		// Unlike MaxLHS this is a resource bound, not a language
		// choice: cutting levels that could have held results makes
		// the answer partial, so record the truncation.
		maxSize = lr.opts.MaxLatticeLevel
		lr.gov.truncate(fmt.Sprintf("lattice capped at level %d for relation %s (%d attributes)", maxSize, rel.Pivot, m))
	}

	queue := make([]AttrSet, 0, m)
	for i := 0; i < m; i++ {
		queue = append(queue, AttrSet(0).Add(i))
	}
	level := 1
	tr := lr.opts.Tracer
	var snap levelSnapshot
	if tr != nil {
		snap = lr.snapshotLevel()
	}
	for qi := 0; qi < len(queue); qi++ {
		// One check per lattice node keeps cancellation latency
		// bounded by a single node's partition work.
		if err := lr.gov.cancelled(); err != nil {
			lr.err = err
			break
		}
		if lr.gov.expired() {
			break // keep the partial traversal output
		}
		a := queue[qi]
		if sz := a.Size(); sz > level {
			// The queue is level-ordered: reaching the first set of the
			// next size means the previous level is fully processed, so
			// every product this level needs is determined. Compute them
			// on every core when the level is big enough.
			if tr != nil {
				lr.emitLevel(tr, level, &snap)
			}
			level = sz
			lr.precomputeLevel(queue[qi:], xfd)
			if lr.err != nil {
				break
			}
		}
		if !xfd && lr.supersetOfKey(a) {
			// A key found after a was queued: under Figure 8 a
			// superkey node yields nothing. (In XFD mode it may still
			// complete a target, excusing more rows by missing values.)
			continue
		}
		lr.stats.NodesVisited++

		ls := lr.candidateLHS(a, xfd)
		if len(ls) == 0 && a.Size() > 1 {
			continue
		}
		pa := lr.getPartition(a)

		if pa.IsKey() && !lr.opts.DisableKeyPruning {
			lr.keys = append(lr.keys, a)
			if xfd {
				// Figure 9 lines 18–25: a key separates every two
				// rows, so every target is satisfied at this node
				// unless two buckets share a row without a null.
				lr.checkTargets(a, nil, lr.nullsFor(a))
				// Failed edges into a key node can still seed minimal
				// inter-relation FDs (the FD {x} -> r where {x, r} is
				// a key fails globally but may hold under each
				// parent), so targets are created before the node's
				// expansion is pruned.
				lr.seedTargets(a, pa, ls)
			}
			continue
		}

		for _, al := range ls {
			r := (a &^ al).MaxBit()
			pal := lr.getPartition(al)
			if pal.Error() == pa.Error() {
				lr.fds = append(lr.fds, edge{lhs: al, rhs: r})
			}
		}
		if xfd {
			// Failed edges seed candidate partial FDs; a itself seeds
			// a candidate partial Key (it is not a key here, but
			// ancestor attributes could complete it).
			lr.seedTargets(a, pa, ls)
			lr.seedKeyTarget(a, pa)
		}

		if xfd && len(lr.incoming) > 0 {
			lr.checkTargets(a, lr.groupIDs(a), lr.nullsFor(a))
		}

		if a.Size() >= maxSize {
			continue
		}
		for i := a.MaxBit() + 1; i < m; i++ {
			next := a.Add(i)
			if lr.supersetOfKey(next) {
				continue
			}
			queue = append(queue, next)
		}
	}
	if tr != nil {
		lr.emitLevel(tr, level, &snap)
	}
}

// levelSnapshot records the counters relevant to one lattice level at
// its start, so emitLevel can report per-level deltas. The partition
// counters come from this relation's store, so lookups in another
// relation's store never count toward this one's rates.
type levelSnapshot struct {
	nodes, products, hits, misses int
}

func (lr *latticeRun) snapshotLevel() levelSnapshot {
	return levelSnapshot{
		nodes:    lr.stats.NodesVisited,
		products: lr.stats.PartitionsComputed,
		hits:     lr.pc.hits,
		misses:   lr.pc.misses,
	}
}

// emitLevel reports one completed lattice level — nodes visited,
// partition products computed, the level's cache hit rate, and the
// run cache's live byte gauge — then advances snap to the next
// level's baseline. Levels where nothing happened (the traversal
// stopped at a boundary) are skipped.
func (lr *latticeRun) emitLevel(tr trace.Tracer, level int, snap *levelSnapshot) {
	cur := lr.snapshotLevel()
	nodes := cur.nodes - snap.nodes
	if nodes == 0 {
		*snap = cur
		return
	}
	hits, misses := cur.hits-snap.hits, cur.misses-snap.misses
	ev := &trace.Event{
		Kind: trace.KindLevel, Relation: string(lr.rel.Pivot), Level: level,
		Nodes: nodes, Products: cur.products - snap.products,
		CacheHits: hits, CacheMisses: misses,
		CacheBytes: lr.cache.bytes,
	}
	if hits+misses > 0 {
		ev.HitRate = float64(hits) / float64(hits+misses)
	}
	tr.Emit(ev)
	*snap = cur
}

// seedTargets creates candidate-partial-FD targets from the failed
// edges into node a (Figure 9 lines 34–37).
func (lr *latticeRun) seedTargets(a AttrSet, pa *partition.Partition, ls []AttrSet) {
	if lr.rel.Parent == nil {
		return
	}
	ts := time.Now()
	defer func() { lr.stats.InterTime += time.Since(ts) }()
	for _, al := range ls {
		r := (a &^ al).MaxBit()
		pal := lr.getPartition(al)
		if pal.Error() == pa.Error() {
			continue // satisfied edge, not a partial FD
		}
		if !lr.admit() {
			continue
		}
		if lr.doomed() {
			// A failed edge has a Π_LHS group that spans two buckets.
			targetDropped(lr.rel, lr.opts, lr.stats, "degenerate pair unsatisfiable")
			continue
		}
		lr.emit(createTarget(lr.rel, al, r, pal, lr.groupIDs(a), lr.ni, &lr.ts, lr.opts, lr.stats))
	}
}

// seedKeyTarget creates the candidate-partial-Key target of node a
// (the KeyTarget side of Figure 10): pa is not a key here, but ancestor
// attributes could complete a into an inter-relation Key.
func (lr *latticeRun) seedKeyTarget(a AttrSet, pa *partition.Partition) {
	if lr.rel.Parent == nil || !lr.admit() {
		return
	}
	ts := time.Now()
	if lr.doomed() && !pa.IsKey() {
		targetDropped(lr.rel, lr.opts, lr.stats, "degenerate pair unsatisfiable")
	} else {
		lr.emit(createTarget(lr.rel, a, 0, pa, nil, lr.ni, &lr.ts, lr.opts, lr.stats))
	}
	lr.stats.InterTime += time.Since(ts)
}

// doomed reports whether every target this relation builds would die:
// its parent relation has one row and no missing value at or above it,
// so the buckets of any violating group meet at that row with nothing
// to excuse them. The relation then counts each would-be target as
// dropped without building it, or the Π group ids it would read; with
// no incoming targets either, run traverses it as Figure 8 and seeds
// nothing at all.
func (lr *latticeRun) doomed() bool {
	return lr.rel.Parent.NRows() == 1 && !lr.ni.keep(0)
}

// admit reports whether the relation may emit another outgoing target.
// At the MaxTargetsPerRelation cap it drops the target instead and
// marks the run truncated, since the target might have completed an
// inter-relation FD or Key higher up.
func (lr *latticeRun) admit() bool {
	if len(lr.outgoing) < lr.opts.maxTargets() {
		return true
	}
	targetDropped(lr.rel, lr.opts, lr.stats, "outgoing target cap reached")
	lr.gov.truncate(fmt.Sprintf("outgoing target cap %d reached for relation %s", lr.opts.maxTargets(), lr.rel.Pivot))
	return false
}

// emit adds a target that survived construction to the relation's
// outgoing targets.
func (lr *latticeRun) emit(pt *target) {
	if pt != nil {
		lr.outgoing = append(lr.outgoing, pt)
	}
}

// maxPartialAttrs bounds the attribute-set size a partially satisfied
// target absorbs when it propagates upward (Figure 9 lines 26–29).
const maxPartialAttrs = 2

// checkTargets tests every incoming target against the attribute set
// a (Figure 9 lines 18–33). gids == nil means a is a key of the
// relation. Satisfied targets yield inter-relation FDs or Keys;
// partially satisfied ones propagate upward with a absorbed into
// their LHS, enabling LHSs that span three or more hierarchy levels.
func (lr *latticeRun) checkTargets(a AttrSet, gids []int32, nulls []bool) {
	ts := time.Now()
	defer func() { lr.stats.InterTime += time.Since(ts) }()
	for _, pt := range lr.incoming {
		// Superset suppression: a satisfying subset makes any
		// superset-based result non-minimal.
		skip := false
		for _, s := range pt.satisfied {
			if a.Contains(s) {
				skip = true
				break
			}
		}
		if skip {
			continue
		}
		lr.stats.TargetChecks++
		if pt.satisfiedBy(gids, nulls, &lr.ts) {
			pt.satisfied = append(pt.satisfied, a)
			if pt.keyOnly {
				lr.interKeys = append(lr.interKeys, pt.keyAt(lr.rel, a, lr.depths))
			} else {
				lr.interFDs = append(lr.interFDs, pt.fdAt(lr.rel, a, lr.depths))
			}
			continue
		}
		if lr.rel.Parent != nil && a.Size() <= maxPartialAttrs &&
			pt.anySeparated(gids, nulls) && lr.admit() {
			// Progress was made: carry the rest upward with a in the
			// LHS (Figure 9 lines 26–29).
			lr.emit(pt.convert(lr.rel, a, gids, nulls, lr.ni, &lr.ts, lr.opts, lr.stats))
		}
	}
}

// candidateLHS implements Figure 8's candidateLHS (pruning rules 1
// and 2) and, for xfd mode, candidateLHS2 (rule 1 only — rule 2 must
// not suppress edges whose failures seed partition targets). The
// result aliases a buffer the next call overwrites.
func (lr *latticeRun) candidateLHS(a AttrSet, xfd bool) []AttrSet {
	out := lr.lhs[:0]
	for rest := a; rest != 0; rest &= rest - 1 {
		i := bits.TrailingZeros64(uint64(rest))
		al := a.Without(i)
		if lr.opts.DisableFDPruning {
			out = append(out, al)
			continue
		}
		skip := false
		for _, fd := range lr.fds {
			// Rule 1: X → A satisfied removes edge (XY, XYA).
			if fd.rhs == i && al.Contains(fd.lhs) {
				skip = true
				break
			}
			// Rule 2 (intra-only): X → A satisfied removes edge
			// (XYA, XYAB): an LHS containing both X and A is
			// non-minimal.
			if !xfd && al.Has(fd.rhs) && al.Without(fd.rhs).Contains(fd.lhs) {
				skip = true
				break
			}
		}
		if !skip {
			out = append(out, al)
		}
	}
	lr.lhs = out
	return out
}

// getPartition returns Π_A from the run-shared cache, computing it by
// stripped products of cached sub-partitions on demand.
func (lr *latticeRun) getPartition(a AttrSet) *partition.Partition {
	return lr.cache.partitionOf(lr.pc, a, lr.sc, lr.opts.NaivePartitions, lr.stats)
}

// The level precompute runs only when a level has enough products
// over enough rows to amortize goroutine startup; below the thresholds
// the lazy path in the traversal wins. The gate reads the input alone,
// never the host, so Stats do not depend on GOMAXPROCS.
const (
	parallelLevelMinNodes = 4
	parallelLevelMinRows  = 256
)

// productJob is one partition product of a level precompute: its
// operands, resolved on the traversal goroutine, and the product or
// the error its worker stored.
type productJob struct {
	a         AttrSet
	rest, out *partition.Partition
	ids       []int32
	err       error
}

// precomputeLevel computes the partitions of one lattice level's
// pending nodes on up to GOMAXPROCS workers, seeding the cache the
// traversal then hits. pending is the queue suffix starting at the
// level's first node. Only nodes the traversal would materialize are
// computed — a node with no candidate LHS, or under Figure 8 one
// containing a key, is skipped before its partition is ever built
// (every key it could contain is smaller, so already found) — so the
// cache ends up with exactly the entries the lazy traversal produces
// and discovery output (including the approximate pass, which scans
// the cache) is bit-identical. Workers stop at the deadline, as the
// traversal does at its next node.
func (lr *latticeRun) precomputeLevel(pending []AttrSet, xfd bool) {
	n := lr.rel.NRows()
	if lr.opts.NaivePartitions || n < parallelLevelMinRows {
		return
	}
	size := pending[0].Size()
	jobs := lr.jobs[:0]
	for _, a := range pending {
		if a.Size() != size {
			break
		}
		if _, ok := lr.pc.parts[a]; ok {
			continue
		}
		if !xfd && lr.supersetOfKey(a) {
			continue
		}
		if len(lr.candidateLHS(a, xfd)) == 0 {
			continue
		}
		jobs = append(jobs, productJob{a: a})
	}
	lr.jobs = jobs
	if len(jobs) < parallelLevelMinNodes {
		return
	}
	// Resolve each product's operands serially first (almost always
	// cache hits from the previous level, and the column's group ids
	// from the store); workers then run pure products with no shared
	// state.
	for i := range jobs {
		jobs[i].rest, jobs[i].ids = lr.cache.operands(lr.pc, jobs[i].a, lr.sc, false, lr.stats)
	}
	workers := lr.gov.productWorkers(len(jobs))
	if tr := lr.opts.Tracer; tr != nil {
		trace.Emit(tr, &trace.Event{Kind: trace.KindGovernor, Action: "worker_spawn",
			Workers: workers, Relation: string(lr.rel.Pivot),
			Detail: fmt.Sprintf("product workers for %d level-%d partitions", len(jobs), size)})
	}
	for len(lr.wsc) < workers-1 {
		lr.wsc = append(lr.wsc, partition.GetScratch(n))
	}
	var next atomic.Int64
	// A worker panic must surface as this run's error, not a process
	// crash; workerGroup provides the barrier.
	var grp workerGroup
	for w := 0; w < workers; w++ {
		// The traversal's own scratch serves the first worker: the
		// traversal waits idle until every worker has returned.
		sc := lr.sc
		if w > 0 {
			sc = lr.wsc[w-1]
		}
		grp.Go(func() {
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				if err := lr.gov.cancelled(); err != nil {
					jobs[i].err = err
					return
				}
				if lr.gov.expired() {
					return
				}
				jobs[i].out = jobs[i].rest.Product(jobs[i].ids, sc)
			}
		})
	}
	panicErr := grp.Wait()
	for i := range jobs {
		j := &jobs[i]
		if j.err != nil {
			// First failure in deterministic job order wins.
			lr.err = j.err
			return
		}
		if j.out == nil {
			continue
		}
		lr.cache.install(lr.pc, j.a, j.out)
		lr.stats.PartitionsComputed++
		lr.stats.ParallelProducts++
	}
	if panicErr != nil {
		lr.err = fmt.Errorf("core: panic in product worker for relation %s: %w", lr.rel.Pivot, panicErr)
	}
}

// groupIDs returns (and caches) the row→group lookup for Π_A.
func (lr *latticeRun) groupIDs(a AttrSet) []int32 {
	return lr.cache.gidsOf(lr.pc, a, func() []int32 { return lr.getPartition(a).GroupIDs() })
}

// nullsFor returns (and caches) the per-row missing-value lookup for
// attribute set a: true where any attribute of a is null. Used by
// target checks, where a missing value excuses its row. The columns
// are scanned once per relation, so a lookup costs its null rows, not
// every row of every column in a.
func (lr *latticeRun) nullsFor(a AttrSet) []bool {
	return lr.cache.nullsOf(lr.pc, a, func() []bool {
		if lr.nullRows == nil {
			lr.nullRows = make([][]int32, lr.rel.NAttrs())
			for i, col := range lr.rel.Cols {
				for row, code := range col {
					if relation.IsNull(code) {
						lr.nullRows[i] = append(lr.nullRows[i], int32(row))
					}
				}
			}
		}
		nl := make([]bool, lr.rel.NRows())
		for rest := a; rest != 0; rest &= rest - 1 {
			for _, row := range lr.nullRows[bits.TrailingZeros64(uint64(rest))] {
				nl[row] = true
			}
		}
		return nl
	})
}

// supersetOfKey reports whether a contains a discovered key (pruning
// rule 3, Figure 8 line 18).
func (lr *latticeRun) supersetOfKey(a AttrSet) bool {
	if lr.opts.DisableKeyPruning {
		return false
	}
	for _, k := range lr.keys {
		if a.Contains(k) {
			return true
		}
	}
	return false
}

// checkWidth verifies the 64-attribute bitset limit.
func checkWidth(rel *relation.Relation) error {
	if rel.NAttrs() > 64 {
		return fmt.Errorf("core: relation %s has %d attributes; at most 64 are supported", rel.Pivot, rel.NAttrs())
	}
	return nil
}

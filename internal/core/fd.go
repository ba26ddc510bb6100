// Package core implements the paper's primary contribution: the
// DiscoverFD and DiscoverXFD algorithms (Yu & Jagadish, VLDB 2006,
// Section 4) for discovering interesting XML functional dependencies,
// XML keys, and the data redundancies they indicate (Definitions
// 7–11) over the hierarchical representation of an XML document.
//
// DiscoverFD (Figure 8) is a partition-based, level-wise traversal of
// the attribute-set lattice of a single relation, in the style of
// TANE, with the paper's three pruning rules. DiscoverXFD (Figures 9
// and 10) runs DiscoverFD bottom-up over the relation tree and
// carries candidate partial FDs/Keys upward as *partition targets* —
// the tuples that ancestor attribute sets must tell apart for an
// inter-relation FD (or Key) to hold.
//
// Two transcription glitches in the supplied paper text are corrected
// here (see DESIGN.md): Figure 9 lines 21–24 swap the Key/FD branches
// (an invalid KeyTarget can only ever yield an FD), and Figure 10's
// creatept is implemented as the per-group refinement it describes,
// stored as one (group, parent row, bucket) row per origin tuple
// instead of inequalities over tuple pairs.
package core

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"time"

	"discoverxfd/internal/schema"
	"discoverxfd/internal/trace"
)

// AttrSet is a set of attribute indices of one relation, represented
// as a bitset. Relations are limited to 64 attributes; Discover
// reports an error beyond that.
type AttrSet uint64

// Has reports whether attribute i is in the set.
func (s AttrSet) Has(i int) bool { return s&(1<<uint(i)) != 0 }

// Add returns the set with attribute i added.
func (s AttrSet) Add(i int) AttrSet { return s | 1<<uint(i) }

// Without returns the set with attribute i removed.
func (s AttrSet) Without(i int) AttrSet { return s &^ (1 << uint(i)) }

// Contains reports whether t ⊆ s.
func (s AttrSet) Contains(t AttrSet) bool { return s&t == t }

// Size returns the number of attributes in the set.
func (s AttrSet) Size() int { return bits.OnesCount64(uint64(s)) }

// MaxBit returns the largest attribute index in the set, or -1 for
// the empty set.
func (s AttrSet) MaxBit() int {
	if s == 0 {
		return -1
	}
	return 63 - bits.LeadingZeros64(uint64(s))
}

// Attrs returns the attribute indices in ascending order.
func (s AttrSet) Attrs() []int {
	out := make([]int, 0, s.Size())
	for s != 0 {
		i := bits.TrailingZeros64(uint64(s))
		out = append(out, i)
		s &^= 1 << uint(i)
	}
	return out
}

// FD is a discovered XML functional dependency
// {P_l1,…,P_ln} → P_r w.r.t. C_p (Definition 7), with all paths
// expressed relative to the pivot path of the tuple class.
type FD struct {
	// Class is the pivot path of the tuple class C_p.
	Class schema.Path
	// LHS holds the left-hand-side paths, sorted lexicographically.
	LHS []schema.RelPath
	// RHS is the right-hand-side path; always a descendant (or the
	// self value) of the pivot, per the interestingness conditions of
	// Definition 10.
	RHS schema.RelPath
	// Inter reports whether the FD is inter-relation (some LHS path
	// reaches outside the pivot's subtree).
	Inter bool
	// Approximate marks FDs found by the approximate (g3) extension;
	// Error is then the fraction of the class's tuples that must be
	// removed for the FD to hold exactly (0 for exact FDs).
	Approximate bool
	Error       float64
}

// String renders the FD in the paper's notation, e.g.
// "{../contact/name, ./ISBN} -> ./price w.r.t. C(/warehouse/state/store/book)".
// Approximate FDs carry their g3 error, e.g. "… [approx, g3=0.02]".
func (f FD) String() string {
	if f.Approximate {
		return fmt.Sprintf("{%s} -> %s w.r.t. C(%s) [approx, g3=%.3f]", joinRels(f.LHS), f.RHS, f.Class, f.Error)
	}
	return fmt.Sprintf("{%s} -> %s w.r.t. C(%s)", joinRels(f.LHS), f.RHS, f.Class)
}

// Key is a discovered XML key ⟨C_p, LHS⟩ (Definition 8): the LHS
// paths uniquely identify each generalized tree tuple of the class.
type Key struct {
	Class schema.Path
	LHS   []schema.RelPath
	Inter bool
}

// String renders the key, e.g. "{./ISBN, ../contact/name} KEY of C(/…/book)".
func (k Key) String() string {
	return fmt.Sprintf("{%s} KEY of C(%s)", joinRels(k.LHS), k.Class)
}

// Redundancy pairs a satisfied interesting FD whose LHS is not a key
// with the amount of redundantly stored data it witnesses
// (Definition 11).
type Redundancy struct {
	FD FD
	// RedundantValues counts, over all LHS-equal tuple groups, the
	// occurrences of the RHS value beyond the first — i.e. how many
	// RHS subtrees could be removed without information loss.
	RedundantValues int
	// Groups counts the LHS-equal groups with two or more tuples.
	Groups int
}

func (r Redundancy) String() string {
	return fmt.Sprintf("%s  [%d redundant value(s) in %d group(s)]", r.FD, r.RedundantValues, r.Groups)
}

// Stats aggregates instrumentation over a discovery run; the
// experiment harness (E5, E6) reports these.
type Stats struct {
	// Relations is the number of essential relations processed.
	Relations int
	// RelationsReused counts essential relations whose lattice
	// traversal was skipped entirely because the hierarchy's warm
	// entry proved their subtree untouched since the last run and replayed
	// its cached outputs (see Run.planReuse).
	RelationsReused int
	// Tuples is the total tuple count over essential relations.
	Tuples int
	// NodesVisited counts attribute-set lattice nodes processed.
	NodesVisited int
	// PartitionsComputed counts partition products performed.
	PartitionsComputed int
	// ParallelProducts counts partition products computed by the
	// level precompute's workers (a subset of PartitionsComputed): a
	// level computes its products on every core when it has at least
	// 4 of them over at least 256 rows. It depends on the input alone,
	// never on GOMAXPROCS, and is zero under NaivePartitions.
	ParallelProducts int
	// PartitionCacheHits / PartitionCacheMisses count lookups in the
	// run-wide partition cache; misses trigger a build or product.
	// PartitionCacheEvictions counts multi-attribute partitions trimmed
	// from retired relations to honor Options.MaxPartitionBytes, and
	// PartitionCachePeakBytes is the cache's estimated high-water mark.
	PartitionCacheHits      int
	PartitionCacheMisses    int
	PartitionCacheEvictions int
	PartitionCachePeakBytes int64
	// TargetsCreated counts partition targets created from failed
	// intra-relation edges (Figure 10 creatept).
	TargetsCreated int
	// TargetsPropagated counts targets carried up a level (pure
	// conversions plus partial-satisfaction propagations).
	TargetsPropagated int
	// TargetsDropped counts targets discarded: two buckets of a
	// violating group meet at one parent row with no missing value to
	// excuse them ("degenerate pair unsatisfiable", at creation or on
	// conversion), or the relation reached MaxTargetsPerRelation. A
	// relation whose parent has one row and no missing value at or
	// above it counts its would-be targets here without building them,
	// and only when it receives targets: without them it traverses as
	// Figure 8 and seeds none.
	TargetsDropped int
	// TargetChecks counts (attribute set, target) satisfaction tests.
	TargetChecks int
	// IntraTime is time spent in lattice traversal and partition
	// arithmetic; InterTime is time spent creating, converting and
	// checking partition targets. Both are accumulated per relation
	// and then summed across relations. Relations are traversed one
	// after another (a level's product workers run while the traversal
	// waits for them), so every accrual interval is a disjoint slice of
	// the run and IntraTime+InterTime ≤ WallTime —
	// TestStatsTimeAccounting pins that bound as the double-counting
	// regression check. Each relation's accounting is exclusive: its
	// intra share is measured once, as the lattice traversal's elapsed
	// time less the target work inside it, never counted twice.
	IntraTime, InterTime time.Duration
	// WallTime is the wall-clock duration of the whole run, plan
	// through assemble.
	WallTime time.Duration
	// Stages is the wall-clock duration of each pipeline stage in
	// execution order — plan, traverse, minimize, verify, assemble, as
	// trace.Stages names them — so their sum is at most WallTime. Every
	// run times each stage once, traced or not, and its stage_end and
	// run_end trace events carry these very durations and WallTime.
	Stages [numStages]time.Duration
	// Truncated reports that a resource budget (deadline, tuple
	// budget, or lattice-level cap) stopped the run early: the Result
	// is a valid partial answer — every reported FD/Key holds on the
	// data that was examined — but constraints may be missing and, if
	// the input itself was truncated, reported constraints may not
	// hold on the full document. TruncatedReason names the first
	// budget that ran out.
	Truncated       bool
	TruncatedReason string
}

// Result is the output of a discovery run.
type Result struct {
	// FDs are the minimal satisfied interesting XML FDs whose LHS is
	// not a key of the class.
	FDs []FD
	// Keys are the minimal XML keys per tuple class.
	Keys []Key
	// Redundancies pairs each FD with its witness counts; by
	// Definition 11 every entry of FDs indicates a redundancy, so
	// len(Redundancies) == len(FDs).
	Redundancies []Redundancy
	// ApproxFDs lists the approximate FDs within Options.ApproxError,
	// minimal and not implied by an exact FD. Empty unless the
	// approximate extension was enabled.
	ApproxFDs []FD
	// Stats carries run instrumentation.
	Stats Stats
}

// Options configures discovery.
type Options struct {
	// MaxLHS bounds the number of attributes drawn from any single
	// relation level into one LHS (lattice depth). 0 means unbounded.
	MaxLHS int
	// NoInterRelation disables partition targets entirely; only
	// intra-relation FDs and Keys are found (DiscoverFD per relation).
	NoInterRelation bool
	// MaxTargetsPerRelation caps the targets a relation may emit
	// upward; each target over the cap is dropped (counted in
	// Stats.TargetsDropped) and the result is marked Truncated, naming
	// the relation. 0 means 1<<16.
	MaxTargetsPerRelation int
	// DisableKeyPruning disables pruning rule 3 (supersets of keys),
	// for ablation E6.
	DisableKeyPruning bool
	// DisableFDPruning disables pruning rules 1–2 (candidateLHS),
	// for ablation E6. All edges are then tested.
	DisableFDPruning bool
	// KeepConstantFDs reports FDs with empty LHS (constant columns)
	// instead of suppressing them. They are legitimate
	// redundancy-indicating FDs but usually noise; off by default.
	KeepConstantFDs bool
	// ApproxError, when positive, additionally reports intra-relation
	// FDs that hold after removing at most this fraction of a class's
	// tuples (TANE's g3 measure; extension). Approximate candidates
	// are drawn from the edges the exact traversal visited.
	ApproxError float64
	// NaivePartitions disables the partition-engine fast path: column
	// partitions are built by generic hashing instead of the interned
	// dense-code counting build, no level's products are precomputed
	// on worker goroutines, and the run-wide cache keeps nothing beyond
	// what the lazy traversal needs. This is the pre-fast-path-equivalent
	// engine, kept selectable for differential tests and as the
	// benchmark baseline; results are identical either way.
	NaivePartitions bool
	// MaxPartitionBytes caps the estimated bytes of partitions, and of
	// the group-id and null lookups derived from them, retained by the
	// run-wide cache across relations. The active relation's working
	// set is never evicted mid-traversal; completed relations are
	// trimmed to column partitions when over budget. Eviction affects
	// speed only, never results. 0 means unlimited.
	MaxPartitionBytes int64
	// MaxLatticeLevel caps the attribute-set size explored in any
	// relation's lattice. Unlike MaxLHS (a language restriction on the
	// FDs sought), hitting this cap marks the result Truncated: levels
	// that could have held results were skipped. 0 means unbounded.
	MaxLatticeLevel int
	// RelationHook, if non-nil, is invoked at the start of each
	// essential relation's lattice traversal with the relation's pivot
	// path, on the goroutine that called Discover. It exists for fault
	// injection in tests (internal/faultinject): a hook that panics
	// exercises the run's recover-to-error path.
	RelationHook func(pivot schema.Path)
	// Tracer receives the run's trace events: pipeline stage spans,
	// per-relation traversal spans, per-lattice-level progress,
	// partition-target lifecycle, and governor events. nil disables
	// tracing; hot paths guard event construction behind a single nil
	// check, so the disabled path costs one pointer compare. The
	// tracer must be safe for concurrent use (both internal/trace
	// backends are): one Tracer may serve concurrent runs, and a
	// product worker that sees the deadline pass emits the governor's
	// truncate event. newRun wraps the supplied tracer with the run's
	// id stamp, so runs sharing a Tracer stay distinguishable.
	Tracer trace.Tracer
}

func (o Options) maxTargets() int {
	if o.MaxTargetsPerRelation <= 0 {
		return 1 << 16
	}
	return o.MaxTargetsPerRelation
}

func joinRels(rs []schema.RelPath) string {
	parts := make([]string, len(rs))
	for i, r := range rs {
		parts[i] = string(r)
	}
	return strings.Join(parts, ", ")
}

func sortRels(rs []schema.RelPath) {
	sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
}

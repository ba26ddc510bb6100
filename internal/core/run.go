package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"discoverxfd/internal/relation"
	"discoverxfd/internal/trace"
)

// Run owns every piece of cross-cutting per-run state of one
// discovery run: the resource governor (context + wall-clock budget),
// the run-wide partition cache, the Stats record being accumulated,
// and the relation-indexed depth and null-row tables the traversal
// and the partition targets consult. One Run is created per
// Engine.Discover call, used on the calling goroutine (the level
// precompute's product workers touch none of it but the governor),
// and discarded; nothing in it is shared across runs except the
// partitions and per-relation outputs it leaves in its hierarchy's
// warm entry.
//
// A run executes as a fixed pipeline of named stages (see execute):
//
//	plan      width checks, depth/null precomputation
//	traverse  post-order relation visit, level products on every core
//	minimize  FD/key minimization and superkey filtering
//	verify    partition-based FD verification (Definition 11 filter)
//	assemble  deterministic Result and redundancy ordering
type Run struct {
	h    *relation.Hierarchy
	opts Options

	gov   *governor
	cache *partitionCache

	// Plan products, all indexed by relation.Relation.Index (plain
	// slices, not pointer-keyed maps: cheaper to build, and iteration
	// order is trivially deterministic).
	depths         []int    // hierarchy depth of each relation
	anyNull        [][]bool // per relation, per row: any column missing
	nullsAtOrAbove []bool   // per relation: missing values here or in any ancestor

	// Per-relation slots: each essential relation writes its output
	// and its Stats once, when it finishes (a replayed one copies the
	// warm entry's output). warm is the hierarchy's warm entry this
	// run was seeded from (nil on cold runs); reusable
	// marks relations whose whole subtree this run replays from it
	// instead of traversing (see planReuse).
	outs     []*relOutput
	stats    []Stats
	warm     *warmHierarchy
	reusable []bool

	// id is the process-unique run identifier ("run-N") stamped on
	// every trace event and pprof label; tr is the run-stamped tracer
	// (nil when tracing is off — the fast path). labels carries the
	// pprof label set of the run (plus the current stage once a stage
	// starts), inherited by every governed worker spawned under it.
	id     string
	tr     trace.Tracer
	labels context.Context

	res *Result
}

// runSeq numbers runs within the process; trace consumers use the id
// to demultiplex concurrent runs sharing one tracer.
var runSeq atomic.Int64

// newRun assembles the per-run state; deadline is the run's
// wall-clock budget (zero means none).
func newRun(ctx context.Context, h *relation.Hierarchy, opts Options, deadline time.Time) *Run {
	id := "run-" + strconv.FormatInt(runSeq.Add(1), 10)
	// Stamp the tracer once so every emit site below — including the
	// governor's and the lattice's — carries the run id for free.
	opts.Tracer = trace.WithRun(opts.Tracer, id)
	return &Run{
		h:     h,
		opts:  opts,
		id:    id,
		tr:    opts.Tracer,
		gov:   &governor{ctx: ctx, deadline: deadline, tr: opts.Tracer},
		cache: newPartitionCache(len(h.Relations), opts.MaxPartitionBytes),
		res:   &Result{},
	}
}

// execute drives the pipeline under the run's pprof label, so CPU
// profiles attribute samples — including those of governed workers,
// which inherit the goroutine label set at spawn — to the run id.
func (run *Run) execute() (*Result, error) {
	var res *Result
	var err error
	pprof.Do(run.gov.ctx, pprof.Labels("xfd_run", run.id), func(ctx context.Context) {
		run.labels = ctx
		res, err = run.pipeline()
	})
	return res, err
}

// ms renders a span duration for trace events.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// The pipeline's stages in execution order: indexes into trace.Stages,
// which names them, and into Stats.Stages, which times them.
const (
	stagePlan = iota
	stageTraverse
	stageMinimize
	stageVerify
	stageAssemble
	numStages
)

// pipeline runs the staged pipeline. Any panic that escapes a stage —
// from the traversal or from result assembly — surfaces as an error
// to the caller instead of killing the process, with the stack kept
// out of its text (see panicError). Product workers additionally
// recover per goroutine (workerGroup's panic barrier), which is what
// keeps a worker panic from unwinding past the group's join. The run
// span (run_start/run_end) brackets the stage spans; run_end reports
// truncation, the run's WallTime, and the error if the run failed,
// followed by the stack if it was a panic.
func (run *Run) pipeline() (res *Result, err error) {
	start := time.Now()
	if run.tr != nil {
		trace.Emit(run.tr, &trace.Event{Kind: trace.KindRunStart,
			Relations: len(run.h.Relations), Tuples: run.h.TotalTuples()})
	}
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("core: panic during discovery: %w", recovered(p))
		}
		run.res.Stats.WallTime = time.Since(start)
		if run.tr != nil {
			ev := &trace.Event{Kind: trace.KindRunEnd, DurationMS: ms(run.res.Stats.WallTime)}
			if res != nil {
				ev.Truncated = res.Stats.Truncated
				ev.Detail = res.Stats.TruncatedReason
			}
			if err != nil {
				ev.Err = err.Error()
				if pe := (*panicError)(nil); errors.As(err, &pe) {
					ev.Err += "\n" + string(pe.stack)
				}
			}
			trace.Emit(run.tr, ev)
		}
	}()
	if err := run.stage(stagePlan, func(context.Context) error { return run.plan() }); err != nil {
		return nil, err
	}
	var all relOutput
	err = run.stage(stageTraverse, func(ctx context.Context) error {
		if err := run.traverse(ctx, run.h.Root); err != nil {
			return err
		}
		run.collect(run.h.Root, &all)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var fds []FD
	_ = run.stage(stageMinimize, func(context.Context) error { fds = run.minimize(all.fds, all.keys); return nil })
	if err := run.stage(stageVerify, func(context.Context) error { return run.verify(fds) }); err != nil {
		return nil, err
	}
	_ = run.stage(stageAssemble, func(context.Context) error { run.assemble(all.approx); return nil })
	return run.res, nil
}

// stage runs pipeline stage i, timing it into Stats.Stages[i] whether
// or not the run is traced, under its trace span and pprof label;
// goroutines the stage spawns inherit the (run, stage) label pair.
// The deferred stage_end carries the recorded duration and keeps trace
// spans well-nested even when the stage panics (pipeline's recover
// then fails the run).
func (run *Run) stage(i int, fn func(ctx context.Context) error) (err error) {
	name := trace.Stages[i]
	if run.tr != nil {
		trace.Emit(run.tr, &trace.Event{Kind: trace.KindStageStart, Stage: name})
	}
	start := time.Now()
	defer func() {
		run.res.Stats.Stages[i] = time.Since(start)
		if run.tr != nil {
			trace.Emit(run.tr, &trace.Event{Kind: trace.KindStageEnd, Stage: name, DurationMS: ms(run.res.Stats.Stages[i])})
		}
	}()
	pprof.Do(run.labels, pprof.Labels("xfd_stage", name), func(ctx context.Context) {
		err = fn(ctx)
	})
	return err
}

// plan validates the input and precomputes the relation-indexed
// tables every later stage reads: the 64-attribute width check, the
// Index invariant the slices depend on, per-relation hierarchy
// depths, and the null-row tables that decide whether two target
// buckets meeting at one row can be told apart vacuously. Input
// truncation carries over into the governor so the Result reports it.
func (run *Run) plan() error {
	h := run.h
	for i, r := range h.Relations {
		if err := checkWidth(r); err != nil {
			return err
		}
		if r.Index != i {
			return fmt.Errorf("core: hierarchy relation %s has index %d at position %d; hierarchies must come from relation.Build", r.Pivot, r.Index, i)
		}
	}
	if h.Truncated {
		run.gov.truncate(h.TruncatedReason)
	}

	run.depths = relationDepths(h)

	run.anyNull = make([][]bool, len(h.Relations))
	run.nullsAtOrAbove = make([]bool, len(h.Relations))
	for _, r := range h.Relations {
		rows := make([]bool, r.NRows())
		here := false
		for _, col := range r.Cols {
			for row, code := range col {
				if relation.IsNull(code) {
					rows[row] = true
					here = true
				}
			}
		}
		run.anyNull[r.Index] = rows
		up := r.Parent != nil && run.nullsAtOrAbove[r.Parent.Index]
		run.nullsAtOrAbove[r.Index] = up || here
	}

	run.outs = make([]*relOutput, len(h.Relations))
	run.stats = make([]Stats, len(h.Relations))
	run.planReuse()
	return nil
}

// seed starts the run from its hierarchy's warm entry:
// the cache reads the entry's partition maps, and planReuse its
// outputs.
func (run *Run) seed(w *warmHierarchy) {
	run.cache.seed(run.h, w.parts)
	run.warm = w
}

// planReuse decides, per relation, whether traverse may replay the
// subtree rooted there from the warm entry, in one post-order walk: a
// subtree is reusable when every essential relation in it still has
// its output slot (ApplyUpdate empties the slots of the relations it
// touches, and of a resized relation's descendants) and every null
// boundary inside it is intact. A boundary is the null profile its
// relation's lattice consulted — the parent's per-row null mask and
// every ancestor's nulls-at-or-above flag (nullInfo) — which an update
// elsewhere in the document can flip (e.g. a graft filling a missing
// optional subtree) without touching the subtree. The boundaries of
// the relations inside the subtree count too, so a relation without a
// slot of its own, such as the synthetic root, is never replayed
// across one that changed.
//
// Note what is deliberately NOT required: an intact ancestor slot. A
// value update to the parent leaves the subtree's outputs valid — its
// own columns are untouched and its target rows still index the same
// parent rows — which is what makes sibling subtrees of the mutated
// region reusable even though every update re-encodes the ancestor
// chain's complex columns.
func (run *Run) planReuse() {
	w := run.warm
	if w == nil || w.outs == nil {
		return
	}
	run.reusable = make([]bool, len(run.h.Relations))
	var walk func(r *relation.Relation) bool
	walk = func(r *relation.Relation) bool {
		ok := (!r.Essential || w.outs[r.Index] != nil) && run.nullBoundaryOK(w, r)
		for _, c := range r.Children {
			// No short-circuit: a reusable child subtree under a
			// changed relation is replayed on its own.
			if !walk(c) {
				ok = false
			}
		}
		run.reusable[r.Index] = ok
		return ok
	}
	walk(run.h.Root)
}

// nullBoundaryOK reports whether the null profiles crossing into r
// match those the warm outputs were computed under: the parent's
// per-row null mask and the nulls-at-or-above flag of every ancestor.
func (run *Run) nullBoundaryOK(w *warmHierarchy, r *relation.Relation) bool {
	p := r.Parent
	if p == nil {
		return true
	}
	if !slices.Equal(run.anyNull[p.Index], w.anyNull[p.Index]) {
		return false
	}
	for a := p; a != nil; a = a.Parent {
		if run.nullsAtOrAbove[a.Index] != w.nullsAtOrAbove[a.Index] {
			return false
		}
	}
	return true
}

// relationDepths returns each relation's depth in the hierarchy tree
// (root 0), indexed by Relation.Index.
func relationDepths(h *relation.Hierarchy) []int {
	depths := make([]int, len(h.Relations))
	var walk func(r *relation.Relation, depth int)
	walk = func(r *relation.Relation, depth int) {
		depths[r.Index] = depth
		for _, c := range r.Children {
			walk(c, depth+1)
		}
	}
	walk(h.Root, 0)
	return depths
}

// traverse is the post-order traversal stage: children before
// parents, so targets flow upward (Figure 9 lines 5–6). Each
// essential relation writes its output and Stats to its own slots,
// and a parent reads its children's slots in child order. ctx carries
// the stage's pprof labels; each essential relation's lattice section
// adds its own relation label on top.
func (run *Run) traverse(ctx context.Context, r *relation.Relation) error {
	if err := run.gov.cancelled(); err != nil {
		return err
	}
	if run.reusable != nil && run.reusable[r.Index] {
		// The whole subtree is unchanged: replay the warm outputs and
		// skip the lattice entirely. The parent reads r's outgoing
		// targets from its slot, exactly as it would after a live run.
		run.replay(r)
		return nil
	}
	for _, c := range r.Children {
		if err := run.traverse(ctx, c); err != nil {
			return err
		}
	}
	if !r.Essential {
		// The synthetic root relation has a single tuple; no FD
		// over it is meaningful and no target can reach it.
		return nil
	}
	if run.gov.expired() {
		// Out of wall-clock budget: keep what the subtree found,
		// skip this relation's lattice (graceful degradation).
		return nil
	}
	// The parent appends to its incoming targets' satisfied lists, so
	// it gets clones and the children's slots stay as written.
	var incoming []*target
	for _, c := range r.Children {
		if o := run.outs[c.Index]; o != nil {
			for _, t := range o.out {
				incoming = append(incoming, t.clone())
			}
		}
	}
	if run.opts.RelationHook != nil {
		run.opts.RelationHook(r.Pivot)
	}
	st := &run.stats[r.Index]
	st.Relations = 1
	st.Tuples = r.NRows()
	relStart := time.Now()
	if run.tr != nil {
		trace.Emit(run.tr, &trace.Event{Kind: trace.KindRelationStart,
			Relation: string(r.Pivot), Tuples: r.NRows(), Attrs: r.NAttrs()})
	}
	lr := &latticeRun{rel: r, opts: &run.opts, stats: st, depths: run.depths, incoming: incoming, gov: run.gov, cache: run.cache}
	if p := r.Parent; p != nil {
		lr.ni = nullInfo{parentAnyNull: run.anyNull[p.Index], aboveParent: p.Parent != nil && run.nullsAtOrAbove[p.Parent.Index]}
	}
	// The relation label scopes profile samples of this lattice
	// traversal (and the product workers it spawns) to the pivot.
	pprof.Do(ctx, pprof.Labels("xfd_relation", string(r.Pivot)), func(context.Context) {
		lr.run()
	})
	if lr.err != nil {
		if run.tr != nil {
			trace.Emit(run.tr, &trace.Event{Kind: trace.KindRelationEnd, Relation: string(r.Pivot),
				Nodes: st.NodesVisited, DurationMS: ms(time.Since(relStart)), Err: lr.err.Error()})
		}
		return lr.err
	}
	out := lr.output()
	if run.opts.ApproxError > 0 {
		out.approx = lr.discoverApprox(run.opts.ApproxError)
	}
	run.cache.retire(lr.pc)
	lr.close()
	run.outs[r.Index] = out
	if run.tr != nil {
		trace.Emit(run.tr, &trace.Event{Kind: trace.KindRelationEnd, Relation: string(r.Pivot),
			Nodes: st.NodesVisited, DurationMS: ms(time.Since(relStart))})
	}
	return nil
}

// replay fills the slots of a reused subtree post-order from the warm
// entry. The trace stream still shows the relation spans, flagged as
// reused, so consumers see the same well-nested shape a live run
// emits.
func (run *Run) replay(r *relation.Relation) {
	for _, c := range r.Children {
		run.replay(c)
	}
	out := run.warm.outs[r.Index]
	if !r.Essential || out == nil {
		return
	}
	if run.opts.RelationHook != nil {
		run.opts.RelationHook(r.Pivot)
	}
	run.outs[r.Index] = out
	run.stats[r.Index] = Stats{Relations: 1, RelationsReused: 1, Tuples: r.NRows()}
	if run.tr != nil {
		trace.Emit(run.tr, &trace.Event{Kind: trace.KindRelationStart,
			Relation: string(r.Pivot), Tuples: r.NRows(), Attrs: r.NAttrs()})
		trace.Emit(run.tr, &trace.Event{Kind: trace.KindRelationEnd,
			Relation: string(r.Pivot), Detail: "subtree reused"})
	}
}

// collect appends the relations' outputs to all in post-order —
// children before parents, siblings in order — and sums their Stats
// into the Result.
func (run *Run) collect(r *relation.Relation, all *relOutput) {
	for _, c := range r.Children {
		run.collect(c, all)
	}
	mergeStats(&run.res.Stats, &run.stats[r.Index])
	if o := run.outs[r.Index]; o != nil {
		all.fds = append(all.fds, o.fds...)
		all.keys = append(all.keys, o.keys...)
		all.approx = append(all.approx, o.approx...)
	}
}

// warmEntry packages what this run leaves for the next one over its
// hierarchy, or nil when it leaves nothing, which keeps the entry in
// place. A truncated run leaves no outputs: a skipped relation has
// none to replay, and a partial entry would silently pin the
// truncation into every warm repeat.
func (run *Run) warmEntry() *warmHierarchy {
	w := &warmHierarchy{key: warmKey(run.opts), parts: run.cache.snapshot()}
	if !run.res.Stats.Truncated {
		w.outs, w.anyNull, w.nullsAtOrAbove = run.outs, run.anyNull, run.nullsAtOrAbove
	}
	if w.parts == nil && w.outs == nil {
		return nil
	}
	return w
}

// minimize reduces the traversal's raw FD and key streams to minimal
// form: duplicate and superset-LHS FDs go, keys are minimized and
// sorted into the Result, and FDs whose LHS contains a discovered key
// are dropped (a superkey LHS indicates no redundancy). The surviving
// candidates are returned for verification.
func (run *Run) minimize(rawFDs []FD, rawKeys []Key) []FD {
	in := newLHSInterner()
	fds := in.minimizeFDs(rawFDs)
	run.res.Keys = in.minimizeKeys(rawKeys)
	fds = in.dropSuperkeyLHS(fds, run.res.Keys)
	sortKeys(run.res.Keys)
	return fds
}

// verify applies the Definition 11 filter: an FD indicates a
// redundancy iff its LHS is not a key of the class. Lattice key
// pruning and the superkey filter in minimize remove almost all such
// FDs; the final check, derived from partitions (see verifyFD),
// guarantees the invariant exactly and provides the witness counts.
func (run *Run) verify(fds []FD) error {
	v := newVerifier(run.h, run.cache, run.opts.NaivePartitions)
	defer v.close()
	for _, fd := range fds {
		if err := run.gov.cancelled(); err != nil {
			return err
		}
		ev, err := v.verifyFD(fd)
		if err != nil {
			return err
		}
		if ev.LHSIsKey {
			continue
		}
		run.res.FDs = append(run.res.FDs, fd)
		run.res.Redundancies = append(run.res.Redundancies, Redundancy{
			FD:              fd,
			RedundantValues: ev.Witnesses,
			Groups:          ev.WitnessGroups,
		})
	}
	return nil
}

// assemble puts the Result into its deterministic output order, folds
// the approximate pass in (minimal, not implied by an exact FD), and
// stamps the truncation status and cache counters.
func (run *Run) assemble(rawApprox []FD) {
	res := run.res
	sortFDs(res.FDs)
	sortRedundancies(res.Redundancies)
	if len(rawApprox) > 0 {
		res.ApproxFDs = newLHSInterner().minimizeApprox(rawApprox, res.FDs)
		sortFDs(res.ApproxFDs)
	}
	res.Stats.Truncated, res.Stats.TruncatedReason = run.gov.status()
	run.cache.flushStats(&res.Stats)
}

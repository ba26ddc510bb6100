package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"runtime/pprof"
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
// Engine.Discover call, used on however many goroutines the governed
// traversal spawns, and discarded; nothing in it is shared across
// runs except the immutable partitions the owning Engine chooses to
// carry over.
//
// A run executes as a fixed pipeline of named stages (see execute):
//
//	plan      width checks, depth/null precomputation
//	traverse  post-order subtree visit (serial or governed-parallel)
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

	// memo is the engine's cached subtree outputs for this hierarchy
	// (nil on cold runs); reusable marks relations whose whole subtree
	// traversal this run replays from the memo instead of running (see
	// planReuse); memoOuts collects the per-relation outputs — replayed
	// or freshly computed — that become the next memo. Parallel subtree
	// workers write disjoint memoOuts slots, so no synchronization is
	// needed.
	memo     *subtreeMemo
	reusable []bool
	memoOuts []*memoOutput

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
		cache: newPartitionCache(opts.MaxPartitionBytes),
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

// msSince renders a span duration for trace events.
func msSince(start time.Time) float64 {
	return float64(time.Since(start)) / float64(time.Millisecond)
}

// pipeline runs the staged pipeline. Any panic that escapes a stage —
// from the serial traversal or from result assembly — surfaces as an
// error to the caller instead of killing the process. Parallel
// workers additionally recover per goroutine (workerGroup's panic
// barrier), which is what keeps a worker panic from unwinding past
// the group's join. The run span (run_start/run_end) brackets the
// stage spans; run_end reports truncation, wall time, and the error
// if the run failed.
func (run *Run) pipeline() (res *Result, err error) {
	start := time.Now()
	if run.tr != nil {
		trace.Emit(run.tr, &trace.Event{Kind: trace.KindRunStart,
			Relations: len(run.h.Relations), Tuples: run.h.TotalTuples()})
	}
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("core: panic during discovery: %v\n%s", p, debug.Stack())
		}
		if run.tr != nil {
			ev := &trace.Event{Kind: trace.KindRunEnd, DurationMS: msSince(start)}
			if res != nil {
				ev.Truncated = res.Stats.Truncated
				ev.Detail = res.Stats.TruncatedReason
			}
			if err != nil {
				ev.Err = err.Error()
			}
			trace.Emit(run.tr, ev)
		}
	}()
	var top gathered
	if err := run.stage("plan", func(context.Context) error { return run.plan() }); err != nil {
		return nil, err
	}
	err = run.stage("traverse", func(ctx context.Context) error {
		top = run.traverse(ctx, run.h.Root)
		return top.err
	})
	if err != nil {
		return nil, err
	}
	run.res.Stats = top.stats
	var fds []FD
	_ = run.stage("minimize", func(context.Context) error { fds = run.minimize(&top); return nil })
	if err := run.stage("verify", func(context.Context) error { return run.verify(fds) }); err != nil {
		return nil, err
	}
	_ = run.stage("assemble", func(context.Context) error { run.assemble(top.approx); return nil })
	run.res.Stats.WallTime = time.Since(start)
	return run.res, nil
}

// stage brackets one pipeline stage with its trace span and pprof
// label; goroutines the stage spawns inherit the (run, stage) label
// pair. The deferred stage_end keeps trace spans well-nested even
// when the stage panics (pipeline's recover then fails the run).
func (run *Run) stage(name string, fn func(ctx context.Context) error) (err error) {
	if run.tr != nil {
		trace.Emit(run.tr, &trace.Event{Kind: trace.KindStageStart, Stage: name})
		start := time.Now()
		defer func() {
			trace.Emit(run.tr, &trace.Event{Kind: trace.KindStageEnd, Stage: name, DurationMS: msSince(start)})
		}()
	}
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

	run.memoOuts = make([]*memoOutput, len(h.Relations))
	run.planReuse()
	return nil
}

// planReuse decides, per relation, whether traverse may replay the
// subtree rooted there from the engine's memo. The sound condition has
// two halves. Inside the subtree: every relation is untouched since
// the memo was built (resizes dirty their whole descendant cone, see
// subtreeMemo.markDirty) and has cached outputs if essential. At the
// boundary: the null profiles the subtree's lattices consulted —
// the parent's per-row null mask and every ancestor's nulls-at-or-
// above flag (nullInfo) — are unchanged, since an update elsewhere in
// the document can flip them (e.g. a graft filling a missing optional
// subtree) without any RelChange inside the subtree. Interior
// relations' null inputs come from clean in-subtree relations and so
// match automatically; only the boundary needs checking.
//
// Note what is deliberately NOT required: a clean ancestor. A value
// update to the parent leaves the subtree's outputs valid — its own
// columns are untouched and its target rows still index the same
// parent rows — which is what makes sibling subtrees of the mutated
// region reusable even though every update re-encodes the ancestor
// chain's complex columns.
func (run *Run) planReuse() {
	m := run.memo
	n := len(run.h.Relations)
	if m == nil || len(m.outs) != n || len(m.dirty) != n || len(m.anyNull) != n || len(m.nullsAtOrAbove) != n {
		run.memo = nil
		return
	}
	run.reusable = make([]bool, n)
	var subClean func(r *relation.Relation) bool
	subClean = func(r *relation.Relation) bool {
		ok := !m.dirty[r.Index] && (!r.Essential || m.outs[r.Index] != nil)
		for _, c := range r.Children {
			// No short-circuit: a clean child subtree under a dirty
			// relation is reusable on its own and needs its flag set.
			if !subClean(c) {
				ok = false
			}
		}
		run.reusable[r.Index] = ok
		return ok
	}
	subClean(run.h.Root)
	for _, r := range run.h.Relations {
		if run.reusable[r.Index] && !run.nullBoundaryOK(m, r) {
			run.reusable[r.Index] = false
		}
	}
}

// nullBoundaryOK reports whether the null profiles crossing into r's
// subtree match those the memo was built under: the parent's per-row
// null mask and the nulls-at-or-above flag of every ancestor.
func (run *Run) nullBoundaryOK(m *subtreeMemo, r *relation.Relation) bool {
	p := r.Parent
	if p == nil {
		return true
	}
	now, then := run.anyNull[p.Index], m.anyNull[p.Index]
	if len(now) != len(then) {
		return false
	}
	for i := range now {
		if now[i] != then[i] {
			return false
		}
	}
	for a := p; a != nil; a = a.Parent {
		if run.nullsAtOrAbove[a.Index] != m.nullsAtOrAbove[a.Index] {
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

// gathered collects what one subtree's traversal produced.
type gathered struct {
	fds    []FD
	keys   []Key
	approx []FD
	stats  Stats
	out    []*target
	err    error // first error in deterministic child order
}

func (g *gathered) merge(o *gathered) {
	g.fds = append(g.fds, o.fds...)
	g.keys = append(g.keys, o.keys...)
	g.approx = append(g.approx, o.approx...)
	g.out = append(g.out, o.out...)
	mergeStats(&g.stats, &o.stats)
	if g.err == nil {
		g.err = o.err
	}
}

// traverse is the post-order traversal stage: children before
// parents, so targets flow upward (Figure 9 lines 5–6). Each call
// gathers its subtree's results locally, which makes the parallel
// mode a pure fan-out: sibling subtrees share nothing until their
// parent merges them, in child order, so output is independent of
// scheduling. ctx carries the stage's pprof labels; each essential
// relation's lattice section adds its own relation label on top.
func (run *Run) traverse(ctx context.Context, r *relation.Relation) gathered {
	var g gathered
	if err := run.gov.cancelled(); err != nil {
		g.err = err
		return g
	}
	if run.reusable != nil && run.reusable[r.Index] {
		// The whole subtree is cone-clean: replay the memoized outputs
		// and skip the lattice entirely. Only r's own outgoing targets
		// surface — interior relations' targets were consumed inside
		// the memoized traversal, exactly as they would be live.
		run.replayOutputs(r, &g)
		if out := run.memo.outs[r.Index]; out != nil {
			g.out = make([]*target, 0, len(out.out))
			for _, t := range out.out {
				g.out = append(g.out, t.clone())
			}
		}
		return g
	}
	if run.opts.Parallel && len(r.Children) > 1 {
		results := make([]gathered, len(r.Children))
		if run.tr != nil {
			trace.Emit(run.tr, &trace.Event{Kind: trace.KindGovernor, Action: "worker_spawn",
				Workers: len(r.Children), Detail: "subtree workers under " + string(r.Pivot)})
		}
		// A worker panic must not unwind past its goroutine's stack
		// (that would kill the process); workerGroup turns it into
		// this subtree's error, joining the others in child order.
		var grp workerGroup
		for i, c := range r.Children {
			grp.Go(fmt.Sprintf("parallel discovery worker for subtree %s", c.Pivot),
				func(err error) { results[i] = gathered{err: err} },
				func() { results[i] = run.traverse(ctx, c) })
		}
		grp.Wait()
		for i := range results {
			g.merge(&results[i])
		}
	} else {
		for _, c := range r.Children {
			cg := run.traverse(ctx, c)
			g.merge(&cg)
			if g.err != nil {
				break
			}
		}
	}
	if g.err != nil {
		return g
	}
	incoming := g.out
	g.out = nil
	if !r.Essential {
		// The synthetic root relation has a single tuple; no FD
		// over it is meaningful and no target can reach it.
		return g
	}
	if run.gov.expired() {
		// Out of wall-clock budget: keep what the subtree found,
		// skip this relation's lattice (graceful degradation).
		return g
	}
	if run.opts.RelationHook != nil {
		run.opts.RelationHook(r.Pivot)
	}
	g.stats.Relations++
	g.stats.Tuples += r.NRows()
	relStart := time.Now()
	nodesBefore := g.stats.NodesVisited
	if run.tr != nil {
		trace.Emit(run.tr, &trace.Event{Kind: trace.KindRelationStart,
			Relation: string(r.Pivot), Tuples: r.NRows(), Attrs: r.NAttrs()})
	}
	lr := &latticeRun{rel: r, opts: &run.opts, stats: &g.stats, depths: run.depths, incoming: incoming, gov: run.gov, cache: run.cache}
	if p := r.Parent; p != nil {
		lr.ni = nullInfo{parentAnyNull: run.anyNull[p.Index], aboveParent: p.Parent != nil && run.nullsAtOrAbove[p.Parent.Index]}
	}
	// The relation label scopes profile samples of this lattice
	// traversal (and the product workers it spawns) to the pivot.
	pprof.Do(ctx, pprof.Labels("xfd_relation", string(r.Pivot)), func(context.Context) {
		lr.run()
	})
	if lr.err != nil {
		g.err = lr.err
		if run.tr != nil {
			trace.Emit(run.tr, &trace.Event{Kind: trace.KindRelationEnd, Relation: string(r.Pivot),
				Nodes: g.stats.NodesVisited - nodesBefore, DurationMS: msSince(relStart), Err: lr.err.Error()})
		}
		return g
	}

	fdsBefore, keysBefore, approxBefore := len(g.fds), len(g.keys), len(g.approx)
	for _, e := range lr.out.intraFDs {
		if e.lhs == 0 && !run.opts.KeepConstantFDs {
			continue
		}
		g.fds = append(g.fds, intraFD(r, e))
	}
	for _, k := range lr.out.intraKeys {
		g.keys = append(g.keys, intraKey(r, k))
	}
	g.fds = append(g.fds, lr.out.interFDs...)
	g.keys = append(g.keys, lr.out.interKeys...)
	if run.opts.ApproxError > 0 {
		g.approx = append(g.approx, lr.discoverApprox(run.opts.ApproxError)...)
	}
	run.cache.retire(lr.pc)
	lr.close()
	g.out = lr.out.outgoing
	// Capture this relation's own outputs for the next memo. The
	// outgoing targets are stored as-is: this run's parent may append
	// to their satisfied lists, which replay resets via clone.
	run.memoOuts[r.Index] = &memoOutput{
		fds:    append([]FD(nil), g.fds[fdsBefore:]...),
		keys:   append([]Key(nil), g.keys[keysBefore:]...),
		approx: append([]FD(nil), g.approx[approxBefore:]...),
		out:    lr.out.outgoing,
		tuples: r.NRows(),
	}
	if run.tr != nil {
		trace.Emit(run.tr, &trace.Event{Kind: trace.KindRelationEnd, Relation: string(r.Pivot),
			Nodes: g.stats.NodesVisited - nodesBefore, DurationMS: msSince(relStart)})
	}
	return g
}

// replayOutputs walks a reused subtree post-order, appending each
// essential relation's memoized FDs, keys and approximate FDs to g and
// carrying the cached outputs forward into this run's memo slots. The
// trace stream still shows the relation spans, flagged as reused, so
// consumers see the same well-nested shape a live run emits.
func (run *Run) replayOutputs(r *relation.Relation, g *gathered) {
	for _, c := range r.Children {
		run.replayOutputs(c, g)
	}
	out := run.memo.outs[r.Index]
	run.memoOuts[r.Index] = out
	if !r.Essential || out == nil {
		return
	}
	if run.opts.RelationHook != nil {
		run.opts.RelationHook(r.Pivot)
	}
	g.stats.Relations++
	g.stats.RelationsReused++
	g.stats.Tuples += out.tuples
	g.fds = append(g.fds, out.fds...)
	g.keys = append(g.keys, out.keys...)
	g.approx = append(g.approx, out.approx...)
	if run.tr != nil {
		trace.Emit(run.tr, &trace.Event{Kind: trace.KindRelationStart,
			Relation: string(r.Pivot), Tuples: out.tuples, Attrs: r.NAttrs()})
		trace.Emit(run.tr, &trace.Event{Kind: trace.KindRelationEnd,
			Relation: string(r.Pivot), Detail: "subtree reused"})
	}
}

// memoSnapshot packages the run's per-relation outputs as the next
// subtree memo. Truncated runs publish nothing: a skipped relation has
// no outputs to replay, and a partial memo would silently pin the
// truncation into every warm repeat.
func (run *Run) memoSnapshot() *subtreeMemo {
	if run.res == nil || run.res.Stats.Truncated || run.memoOuts == nil {
		return nil
	}
	return &subtreeMemo{
		outs:           run.memoOuts,
		dirty:          make([]bool, len(run.memoOuts)),
		anyNull:        run.anyNull,
		nullsAtOrAbove: run.nullsAtOrAbove,
	}
}

// minimize reduces the traversal's raw FD and key streams to minimal
// form: duplicate and superset-LHS FDs go, keys are minimized and
// sorted into the Result, and FDs whose LHS contains a discovered key
// are dropped (a superkey LHS indicates no redundancy). The surviving
// candidates are returned for verification.
func (run *Run) minimize(top *gathered) []FD {
	in := newLHSInterner()
	fds := in.minimizeFDs(top.fds)
	run.res.Keys = in.minimizeKeys(top.keys)
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

package bench

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"discoverxfd/internal/core"
	"discoverxfd/internal/relation"
	"discoverxfd/internal/schema"
	"discoverxfd/internal/xmlgen"
)

// E15UpdateIncremental is the E-update experiment: discovery after a
// batch of random document mutations, incremental (Engine.ApplyUpdate
// patches the warm partition layer, then Engine.Discover revalidates)
// against a cold run that rebuilds the hierarchy from the mutated
// tree and discovers one-shot. Mutation batches cover 1%, 5% and 20%
// of the tuples; the 1% case is the serving-layer steady state and is
// the gated metric (the CI gate additionally enforces an absolute
// ≥5x floor on it via benchgate -floor). Every incremental result is
// differentially checked against its cold run before timings are
// reported — a divergence panics the benchmark.
func E15UpdateIncremental(quick bool) *Table {
	rows := 2000
	if !quick {
		rows = 8000
	}
	t := &Table{
		ID:    "E15",
		Title: "E-update: incremental discovery under document mutations",
		Columns: []string{"mutated", "ops", "tuples", "cold", "incremental", "speedup",
			"reused", "patched", "kept", "dropped"},
		Metrics: map[string]float64{},
		Stats:   map[string]core.Stats{},
		Notes: []string{
			"cold = relation.Build over the mutated tree + Engine.Discover on a fresh engine, warm layer off",
			"incremental = Engine.ApplyUpdate (clean warm partitions kept, dirty columns rebuilt from their codes) + Engine.Discover",
			"mutation batches are seeded random column-localized value updates over one table of the wide-forest corpus",
			"each incremental result is differentially checked against its cold run",
			fmt.Sprintf("GOMAXPROCS=%d; the 1%% case is gated and floor-checked by benchgate", runtime.GOMAXPROCS(0)),
		},
	}

	fractions := []struct {
		key   string
		frac  float64
		gated bool
	}{
		{"1pct", 0.01, true},
		{"5pct", 0.05, false},
		{"20pct", 0.20, false},
	}
	for _, f := range fractions {
		// Fresh corpus per fraction: the update path mutates the
		// retained tree, and the generator is deterministic. The forest
		// shape (eight unrelated wide tables) is the document profile the
		// incremental path serves: mutations land in one table, the
		// engine re-traverses its dirty lattice and replays the clean
		// sibling subtrees from the warm layer.
		ds := xmlgen.WideForest(xmlgen.WideForestParams{
			Tables: 8,
			Table:  xmlgen.WideParams{Rows: rows / 8, Attrs: 10, Domain: 6, FDEvery: 3, Seed: 5},
		})
		h, err := relation.Build(ds.Tree, ds.Schema, relation.Options{})
		if err != nil {
			panic(fmt.Sprintf("bench: %s: %v", ds.Name, err))
		}
		opts := core.Options{ApproxError: 0.05}
		eng := core.NewEngine(opts)
		if _, err := eng.Discover(context.Background(), h, time.Time{}, true); err != nil {
			panic(fmt.Sprintf("bench: warm-up: %v", err))
		}

		rng := rand.New(rand.NewSource(11))
		nOps := int(float64(h.TotalTuples()) * f.frac)
		if nOps < 1 {
			nOps = 1
		}

		// Three mutate-and-discover cycles on the warm engine; the
		// batch is regenerated against the current state each cycle,
		// and the best cycle is the reported incremental time.
		bestIncr := time.Duration(1<<62 - 1)
		var incrRes *core.Result
		totalOps := 0
		for i := 0; i < 3; i++ {
			ops := randomValueUpdates(rng, h, nOps, 2)
			if len(ops) == 0 {
				panic("bench: mutation generator produced no ops")
			}
			start := time.Now()
			cs, err := eng.ApplyUpdate(h, ops)
			if err != nil {
				panic(fmt.Sprintf("bench: apply: %v", err))
			}
			res, err := eng.Discover(context.Background(), h, time.Time{}, true)
			if err != nil {
				panic(fmt.Sprintf("bench: incremental discover: %v", err))
			}
			if d := time.Since(start); d < bestIncr {
				bestIncr = d
			}
			incrRes = res
			totalOps += cs.Ops()
		}

		// Cold baseline over the final mutated tree. Build is part of
		// the measured cost: a system without the update path has to
		// re-ingest the document to see the mutation.
		bestCold := time.Duration(1<<62 - 1)
		var coldRes *core.Result
		for i := 0; i < 3; i++ {
			start := time.Now()
			h2, err := relation.Build(ds.Tree, ds.Schema, relation.Options{})
			if err != nil {
				panic(fmt.Sprintf("bench: cold rebuild: %v", err))
			}
			res, err := core.NewEngine(opts).Discover(context.Background(), h2, time.Time{}, false)
			if err != nil {
				panic(fmt.Sprintf("bench: cold discover: %v", err))
			}
			if d := time.Since(start); d < bestCold {
				bestCold, coldRes = d, res
			}
		}

		// The last incremental cycle and the cold run saw the same
		// document state: their semantic results must agree.
		if g, w := resultSignature(incrRes), resultSignature(coldRes); g != w {
			panic(fmt.Sprintf("bench: E15 %s: incremental result diverges from cold run\nincremental: %s\ncold: %s", f.key, g, w))
		}

		m := eng.Metrics()
		speedup := float64(bestCold) / float64(bestIncr)
		t.Rows = append(t.Rows, []string{
			strings.TrimSuffix(f.key, "pct") + "%",
			fmt.Sprintf("%d", totalOps),
			fmt.Sprintf("%d", h.TotalTuples()),
			fmtDur(bestCold), fmtDur(bestIncr),
			fmt.Sprintf("%.2fx", speedup),
			fmt.Sprintf("%d/%d", incrRes.Stats.RelationsReused, incrRes.Stats.Relations),
			fmt.Sprintf("%d", m.PartitionsPatched),
			fmt.Sprintf("%d", m.PartitionsKept),
			fmt.Sprintf("%d", m.PartitionsDropped),
		})
		if f.gated {
			t.Metrics["speedup_update_"+f.key] = speedup
		} else {
			t.Metrics["update_ratio_"+f.key] = speedup
		}
		t.Metrics["update_ops_"+f.key] = float64(totalOps)
		t.Metrics["update_patched_"+f.key] = float64(m.PartitionsPatched)
		t.Stats[f.key] = incrRes.Stats
	}
	return t
}

// randomValueUpdates generates a seeded batch of n value changes
// against the hierarchy's largest essential relation, with the set
// ops confined to ncols leaf columns. Column-localized value updates
// are the serving-layer steady state the warm patch path is built
// for: only the touched columns go dirty, so the engine keeps every
// cached multi-column partition that avoids them. Inserts and deletes
// resize the relation and drop the multi-column cache wholesale —
// that regime is covered by the differential tests, not timed here.
func randomValueUpdates(rng *rand.Rand, h *relation.Hierarchy, n, ncols int) []relation.Update {
	var r *relation.Relation
	for _, er := range h.EssentialRelations() {
		if r == nil || er.NRows() > r.NRows() {
			r = er
		}
	}
	if r == nil || r.NRows() == 0 {
		return nil
	}
	var leaves []relation.Attr
	for _, a := range r.Attrs {
		if a.Kind == relation.Leaf {
			leaves = append(leaves, a)
		}
	}
	if len(leaves) == 0 {
		return nil
	}
	if ncols > len(leaves) {
		ncols = len(leaves)
	}
	perm := rng.Perm(len(leaves))[:ncols]
	var ops []relation.Update
	used := make(map[int]bool)
	for tries := 0; len(ops) < n && tries < 16*n; tries++ {
		key := r.Keys[rng.Intn(r.NRows())]
		if used[key] {
			continue
		}
		used[key] = true
		a := leaves[perm[rng.Intn(len(perm))]]
		ops = append(ops, relation.Update{Op: relation.OpSet, Class: r.Pivot, Key: key,
			Attr: a.Rel, Value: benchValue(rng, h, a)})
	}
	return ops
}

// benchValue emits a value conforming to the attribute's declared
// kind, so typed schemas never reject the generated batch.
func benchValue(rng *rand.Rand, h *relation.Hierarchy, a relation.Attr) string {
	if h.Schema != nil {
		if el, err := h.Schema.Resolve(a.Path); err == nil && el.Payload != nil {
			switch el.Payload.Kind {
			case schema.Int:
				return fmt.Sprintf("%d", rng.Intn(500))
			case schema.Float:
				return fmt.Sprintf("%d.%d", rng.Intn(50), rng.Intn(10))
			}
		}
	}
	return fmt.Sprintf("v%d", rng.Intn(12))
}

// resultSignature renders the semantic content of a Result — FDs,
// keys, approximate FDs and redundancy witnesses — as one sorted
// string, for the bench-internal differential check.
func resultSignature(res *core.Result) string {
	var parts []string
	for _, fd := range res.FDs {
		parts = append(parts, fd.String())
	}
	for _, k := range res.Keys {
		parts = append(parts, k.String())
	}
	for _, fd := range res.ApproxFDs {
		parts = append(parts, fd.String())
	}
	for _, r := range res.Redundancies {
		parts = append(parts, r.String())
	}
	sort.Strings(parts)
	return strings.Join(parts, "; ")
}

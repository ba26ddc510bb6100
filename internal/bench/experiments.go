package bench

import (
	"context"
	"fmt"
	"time"

	"discoverxfd/internal/core"
	"discoverxfd/internal/flat"
	"discoverxfd/internal/relation"
	"discoverxfd/internal/xmlgen"
)

// discoverDataset builds the hierarchy and runs full DiscoverXFD,
// returning the result and wall time.
func discoverDataset(ds xmlgen.Dataset, ropts relation.Options, copts core.Options) (*core.Result, time.Duration, *relation.Hierarchy) {
	h, err := relation.Build(ds.Tree, ds.Schema, ropts)
	if err != nil {
		panic(fmt.Sprintf("bench: %s: %v", ds.Name, err))
	}
	start := time.Now()
	res, err := core.NewEngine(copts).Discover(context.Background(), h, time.Time{}, false)
	if err != nil {
		panic(fmt.Sprintf("bench: %s: %v", ds.Name, err))
	}
	return res, time.Since(start), h
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

func countInter(fds []core.FD) int {
	n := 0
	for _, f := range fds {
		if f.Inter {
			n++
		}
	}
	return n
}

func totalRedundant(res *core.Result) int {
	n := 0
	for _, r := range res.Redundancies {
		n += r.RedundantValues
	}
	return n
}

// E1Datasets reproduces the dataset-summary table: per dataset, the
// document size, hierarchical representation size, and the discovered
// constraints.
func E1Datasets(quick bool) *Table {
	scale := 1
	if !quick {
		scale = 4
	}
	wh := xmlgen.DefaultWarehouse()
	wh.States *= scale
	db := xmlgen.DefaultDBLP()
	db.Venues *= scale
	ps := xmlgen.DefaultPSD()
	ps.Entries *= scale
	au := xmlgen.DefaultAuction()
	au.Factor = scale
	mo := xmlgen.DefaultMondial()
	mo.Countries *= scale
	ca := xmlgen.DefaultCatalog()
	ca.Products *= scale

	sets := []xmlgen.Dataset{
		xmlgen.Warehouse(wh), xmlgen.DBLP(db), xmlgen.PSD(ps),
		xmlgen.Auction(au), xmlgen.Mondial(mo), xmlgen.Catalog(ca),
	}
	t := &Table{
		ID:    "E1",
		Title: "Dataset summary and discovered constraints",
		Columns: []string{"dataset", "nodes", "relations", "tuples", "FDs", "inter-FDs",
			"keys", "redundant values", "time"},
	}
	for _, ds := range sets {
		res, dur, h := discoverDataset(ds, relation.Options{}, core.Options{})
		t.Rows = append(t.Rows, []string{
			ds.Name,
			fmt.Sprintf("%d", ds.Tree.Size()),
			fmt.Sprintf("%d", len(h.EssentialRelations())),
			fmt.Sprintf("%d", h.TotalTuples()),
			fmt.Sprintf("%d", len(res.FDs)),
			fmt.Sprintf("%d", countInter(res.FDs)),
			fmt.Sprintf("%d", len(res.Keys)),
			fmt.Sprintf("%d", totalRedundant(res)),
			fmtDur(dur),
		})
	}
	t.Notes = append(t.Notes,
		"every reported FD indicates a redundancy (Definition 11); keys do not")
	return t
}

// E2Scalability reproduces the time-vs-size series on the benchmark
// (auction) and real-life-style (psd) generators. The paper's claim
// is near-linear scaling in data size for a fixed schema.
func E2Scalability(quick bool) *Table {
	scales := []int{1, 2, 4, 8}
	if !quick {
		scales = []int{1, 2, 4, 8, 16}
	}
	t := &Table{
		ID:      "E2",
		Title:   "Scalability with data size (fixed schema)",
		Columns: []string{"dataset", "scale", "nodes", "tuples", "time", "µs/tuple"},
	}
	for _, sc := range scales {
		au := xmlgen.DefaultAuction()
		au.Factor = sc
		ds := xmlgen.Auction(au)
		res, dur, h := discoverDataset(ds, relation.Options{}, core.Options{})
		_ = res
		t.Rows = append(t.Rows, []string{
			"auction", fmt.Sprintf("x%d", sc),
			fmt.Sprintf("%d", ds.Tree.Size()),
			fmt.Sprintf("%d", h.TotalTuples()),
			fmtDur(dur),
			fmt.Sprintf("%.1f", float64(dur.Microseconds())/float64(h.TotalTuples())),
		})
	}
	for _, sc := range scales {
		ps := xmlgen.DefaultPSD()
		ps.Entries *= sc
		ps.ProteinPool *= sc
		ds := xmlgen.PSD(ps)
		res, dur, h := discoverDataset(ds, relation.Options{}, core.Options{})
		_ = res
		t.Rows = append(t.Rows, []string{
			"psd", fmt.Sprintf("x%d", sc),
			fmt.Sprintf("%d", ds.Tree.Size()),
			fmt.Sprintf("%d", h.TotalTuples()),
			fmtDur(dur),
			fmt.Sprintf("%.1f", float64(dur.Microseconds())/float64(h.TotalTuples())),
		})
	}
	t.Notes = append(t.Notes,
		"near-constant µs/tuple down each series = near-linear scaling, the paper's headline claim")
	return t
}

// E3FlatVsHier reproduces the hierarchical-vs-flat comparison: as the
// number of unrelated sibling set elements grows, the flat
// representation's tuple count grows multiplicatively (Section 4.1)
// and TANE-over-flat slows accordingly, while the hierarchical
// representation grows additively.
func E3FlatVsHier(quick bool) *Table {
	entries := 40
	if !quick {
		entries = 80
	}
	t := &Table{
		ID:    "E3",
		Title: "Hierarchical vs flat representation (unrelated set elements)",
		Columns: []string{"unrelated sets", "nodes", "hier tuples", "flat tuples",
			"DiscoverXFD", "TANE(flat)", "XFD FDs", "flat FDs"},
	}
	const flatCap = 1 << 19
	for k := 1; k <= 4; k++ {
		ps := xmlgen.PSDParams{Entries: entries, ProteinPool: entries / 2, UnrelatedSets: k, MembersPerSet: 3, Seed: 3}
		ds := xmlgen.PSD(ps)
		res, dur, h := discoverDataset(ds, relation.Options{}, core.Options{})

		flatRows, err := flat.CountRows(ds.Tree, ds.Schema)
		if err != nil {
			panic(err)
		}
		flatTime := "-"
		flatFDs := "-"
		if flatRows <= flatCap {
			tbl, err := flat.Build(ds.Tree, ds.Schema, flatCap)
			if err == nil {
				start := time.Now()
				fds, _, _, derr := tbl.Discover(core.Options{MaxLHS: 3})
				if derr != nil {
					panic(derr)
				}
				flatTime = fmtDur(time.Since(start))
				flatFDs = fmt.Sprintf("%d", len(fds))
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", k),
			fmt.Sprintf("%d", ds.Tree.Size()),
			fmt.Sprintf("%d", h.TotalTuples()),
			fmt.Sprintf("%d", flatRows),
			fmtDur(dur),
			flatTime,
			fmt.Sprintf("%d", len(res.FDs)),
			flatFDs,
		})
	}
	t.Notes = append(t.Notes,
		"flat tuples grow multiplicatively with unrelated set elements; hierarchical tuples additively",
		"'-' marks flat configurations beyond the materialization cap",
		"TANE(flat) is capped at LHS size 3; it cannot express set-element FDs at any size")
	return t
}

// E4SchemaWidth reproduces the schema-width series: discovery cost
// versus the number of attributes of a single relation, showing the
// exponential lattice growth that motivates the hierarchical
// decomposition.
func E4SchemaWidth(quick bool) *Table {
	widths := []int{4, 6, 8, 10}
	if !quick {
		widths = []int{4, 6, 8, 10, 12, 14}
	}
	t := &Table{
		ID:      "E4",
		Title:   "Schema-width sensitivity (single relation)",
		Columns: []string{"attributes", "rows", "lattice nodes", "partitions", "FDs", "keys", "time"},
	}
	for _, w := range widths {
		ds := xmlgen.Wide(xmlgen.DefaultWide(w))
		h, err := relation.Build(ds.Tree, ds.Schema, relation.Options{})
		if err != nil {
			panic(err)
		}
		var rel *relation.Relation
		for _, r := range h.EssentialRelations() {
			rel = r
		}
		start := time.Now()
		fds, keys, stats, err := core.DiscoverRelation(rel, core.Options{})
		if err != nil {
			panic(err)
		}
		dur := time.Since(start)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", w),
			fmt.Sprintf("%d", rel.NRows()),
			fmt.Sprintf("%d", stats.NodesVisited),
			fmt.Sprintf("%d", stats.PartitionsComputed),
			fmt.Sprintf("%d", len(fds)),
			fmt.Sprintf("%d", len(keys)),
			fmtDur(dur),
		})
	}
	t.Notes = append(t.Notes,
		"lattice nodes grow exponentially in width; pruning keeps visited nodes well below 2^w")
	return t
}

// E5IntraInter reproduces the cost-split table: time spent in
// per-relation lattice work versus partition-target work, plus target
// volumes.
func E5IntraInter(quick bool) *Table {
	scale := 1
	if !quick {
		scale = 4
	}
	wh := xmlgen.DefaultWarehouse()
	wh.States *= scale
	db := xmlgen.DefaultDBLP()
	db.Venues *= scale
	au := xmlgen.DefaultAuction()
	au.Factor = scale
	sets := []xmlgen.Dataset{xmlgen.Warehouse(wh), xmlgen.DBLP(db), xmlgen.Auction(au)}

	t := &Table{
		ID:    "E5",
		Title: "Intra- vs inter-relation discovery cost",
		Columns: []string{"dataset", "intra time", "inter time", "targets created",
			"propagated", "checks", "inter FDs", "inter keys"},
	}
	for _, ds := range sets {
		res, _, _ := discoverDataset(ds, relation.Options{}, core.Options{})
		interKeys := 0
		for _, k := range res.Keys {
			if k.Inter {
				interKeys++
			}
		}
		st := res.Stats
		t.Rows = append(t.Rows, []string{
			ds.Name,
			fmtDur(st.IntraTime),
			fmtDur(st.InterTime),
			fmt.Sprintf("%d", st.TargetsCreated),
			fmt.Sprintf("%d", st.TargetsPropagated),
			fmt.Sprintf("%d", st.TargetChecks),
			fmt.Sprintf("%d", countInter(res.FDs)),
			fmt.Sprintf("%d", interKeys),
		})
	}
	return t
}

// E6Pruning reproduces the pruning ablation: DiscoverXFD with the key
// pruning rule and the candidate-LHS (FD) pruning rules individually
// disabled.
func E6Pruning(quick bool) *Table {
	scale := 1
	if !quick {
		scale = 3
	}
	wh := xmlgen.DefaultWarehouse()
	wh.States *= scale
	ps := xmlgen.DefaultPSD()
	ps.Entries *= scale
	sets := []xmlgen.Dataset{xmlgen.Warehouse(wh), xmlgen.PSD(ps)}

	variants := []struct {
		name string
		mod  func(*core.Options)
	}{
		{"all pruning", func(o *core.Options) {}},
		{"no key pruning", func(o *core.Options) { o.DisableKeyPruning = true }},
		{"no FD pruning", func(o *core.Options) { o.DisableFDPruning = true }},
		{"no pruning", func(o *core.Options) { o.DisableKeyPruning = true; o.DisableFDPruning = true }},
	}
	t := &Table{
		ID:      "E6",
		Title:   "Pruning-rule ablation",
		Columns: []string{"dataset", "variant", "lattice nodes", "partitions", "FDs", "time"},
	}
	for _, ds := range sets {
		for _, v := range variants {
			opts := core.Options{MaxLHS: 4} // keep the unpruned lattice finite
			v.mod(&opts)
			res, dur, _ := discoverDataset(ds, relation.Options{}, opts)
			t.Rows = append(t.Rows, []string{
				ds.Name, v.name,
				fmt.Sprintf("%d", res.Stats.NodesVisited),
				fmt.Sprintf("%d", res.Stats.PartitionsComputed),
				fmt.Sprintf("%d", len(res.FDs)),
				fmtDur(dur),
			})
		}
	}
	t.Notes = append(t.Notes,
		"LHS size capped at 4 so the unpruned lattice stays finite",
		"disabling pruning must not change which minimal FDs exist, only cost and non-minimal extras")
	return t
}

// E7SetVsList reproduces the Section 4.5 order remark: comparing set
// elements as unordered collections (the paper's choice) versus
// ordered lists. Author order is shuffled per entry by the
// generators, so list semantics loses the set-element FDs and the
// redundancies they witness.
func E7SetVsList(quick bool) *Table {
	scale := 1
	if !quick {
		scale = 4
	}
	db := xmlgen.DefaultDBLP()
	db.Venues *= scale
	wh := xmlgen.DefaultWarehouse()
	wh.States *= scale
	sets := []xmlgen.Dataset{xmlgen.Warehouse(wh), xmlgen.DBLP(db)}

	t := &Table{
		ID:      "E7",
		Title:   "Unordered-set vs ordered-list semantics for set elements",
		Columns: []string{"dataset", "semantics", "FDs", "set-RHS FDs", "redundant values", "time"},
	}
	for _, ds := range sets {
		for _, ordered := range []bool{false, true} {
			name := "set (paper)"
			if ordered {
				name = "list"
			}
			res, dur, h := discoverDataset(ds, relation.Options{OrderedSets: ordered}, core.Options{})
			setRHS := 0
			for _, f := range res.FDs {
				if rel := h.ByPivot(f.Class); rel != nil {
					if ai := rel.AttrIndex(f.RHS); ai >= 0 && rel.Attrs[ai].Kind == relation.SetValue {
						setRHS++
					}
				}
			}
			t.Rows = append(t.Rows, []string{
				ds.Name, name,
				fmt.Sprintf("%d", len(res.FDs)),
				fmt.Sprintf("%d", setRHS),
				fmt.Sprintf("%d", totalRedundant(res)),
				fmtDur(dur),
			})
		}
	}
	t.Notes = append(t.Notes,
		"generators shuffle member order per instance, so list semantics misses reordered duplicates — the paper's argument for unordered sets")
	return t
}

package bench

import (
	"context"
	"fmt"
	"time"

	"discoverxfd/internal/core"
	"discoverxfd/internal/datatree"
	"discoverxfd/internal/refine"
	"discoverxfd/internal/relation"
	"discoverxfd/internal/xmlgen"
)

// E8Approximate exercises the approximate-FD extension (TANE's g3
// measure, DESIGN.md "Corrections and extensions"): injected
// dependencies are corrupted at increasing noise rates and must
// reappear as approximate FDs once the error budget covers the noise.
func E8Approximate(quick bool) *Table {
	rows := 400
	if !quick {
		rows = 1200
	}
	t := &Table{
		ID:    "E8",
		Title: "Approximate FD recovery under noise (g3 extension)",
		Columns: []string{"noise ‰", "budget g3", "exact FDs", "approx FDs",
			"injected recovered", "time"},
	}
	budgets := []float64{0.005, 0.02, 0.05}
	for _, noise := range []int{0, 5, 20} {
		for _, budget := range budgets {
			p := xmlgen.DefaultWide(8)
			p.Rows = rows
			p.NoisePermille = noise
			ds := xmlgen.Wide(p)
			h, err := relation.Build(ds.Tree, ds.Schema, relation.Options{})
			if err != nil {
				panic(err)
			}
			start := time.Now()
			res, err := core.NewEngine(core.Options{ApproxError: budget}).Discover(context.Background(), h, time.Time{}, false)
			if err != nil {
				panic(err)
			}
			dur := time.Since(start)

			recovered := 0
			for _, gt := range ds.GroundTruth {
				ok := false
				for _, fd := range res.FDs {
					if fd.Class == gt.Class && fd.RHS == gt.RHS && len(fd.LHS) == 1 && fd.LHS[0] == gt.LHS[0] {
						ok = true
					}
				}
				for _, fd := range res.ApproxFDs {
					if fd.Class == gt.Class && fd.RHS == gt.RHS && len(fd.LHS) == 1 && fd.LHS[0] == gt.LHS[0] {
						ok = true
					}
				}
				if ok {
					recovered++
				}
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", noise),
				fmt.Sprintf("%.3f", budget),
				fmt.Sprintf("%d", len(res.FDs)),
				fmt.Sprintf("%d", len(res.ApproxFDs)),
				fmt.Sprintf("%d/%d", recovered, len(ds.GroundTruth)),
				fmtDur(dur),
			})
		}
	}
	t.Notes = append(t.Notes,
		"injected single-attribute dependencies; 'recovered' counts those found exactly or approximately",
		"recovery is complete once the g3 budget meets the noise rate, and never spurious at noise 0")
	return t
}

// E9Refinement exercises the schema-refinement extension: repeatedly
// apply the best applicable repair and track how the witnessed
// redundant values fall, until the document is redundancy-free over
// leaf data.
func E9Refinement(quick bool) *Table {
	scale := 1
	if !quick {
		scale = 2
	}
	t := &Table{
		ID:      "E9",
		Title:   "Refinement convergence (XNF repairs)",
		Columns: []string{"dataset", "round", "leaf FDs", "redundant values", "repair applied"},
	}
	wh := xmlgen.DefaultWarehouse()
	wh.States *= scale
	ps := xmlgen.DefaultPSD()
	ps.Entries *= scale
	for _, ds := range []xmlgen.Dataset{xmlgen.Warehouse(wh), xmlgen.PSD(ps)} {
		doc := reparse(ds.Tree)
		for round := 0; round < 12; round++ {
			s, err := datatree.InferSchema(doc)
			if err != nil {
				panic(err)
			}
			h, err := relation.Build(doc, s, relation.Options{})
			if err != nil {
				panic(err)
			}
			res, err := core.NewEngine(core.Options{}).Discover(context.Background(), h, time.Time{}, false)
			if err != nil {
				panic(err)
			}
			sugs := refine.Suggest(h, res)
			var next *refine.Suggestion
			for i := range sugs {
				if sugs[i].Applicable {
					next = &sugs[i]
					break
				}
			}
			applied := "-"
			if next != nil {
				if _, err := refine.Apply(doc, h, next.FD); err != nil {
					panic(err)
				}
				applied = next.FD.String()
			}
			t.Rows = append(t.Rows, []string{
				ds.Name,
				fmt.Sprintf("%d", round),
				fmt.Sprintf("%d", len(res.FDs)),
				fmt.Sprintf("%d", totalRedundant(res)),
				applied,
			})
			if next == nil {
				break
			}
		}
	}
	t.Notes = append(t.Notes,
		"each round applies the highest-saving applicable repair; '-' means no applicable repair remains",
		"redundant values fall monotonically toward the set-element and inter-relation residue Apply does not automate")
	return t
}

// reparse deep-copies a tree through its XML serialization so
// experiments can mutate it without touching the generator's output.
func reparse(t *datatree.Tree) *datatree.Tree {
	cp, err := datatree.ParseXMLString(t.XMLString())
	if err != nil {
		panic(err)
	}
	return cp
}

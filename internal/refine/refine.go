// Package refine turns discovery output into schema-refinement
// actions, the workflow the paper's introduction motivates:
// "discovery of redundancies ... will provide the critical first step
// for analyzing and refining such schemas." Following the XML Normal
// Form (XNF) intuition of Arenas & Libkin that Definition 11 builds
// on, a document is redundancy-free exactly when every interesting
// FD's LHS is a key; each violating FD is repaired by *moving* the
// RHS element into a new set element keyed by the LHS (the XML
// analogue of a relational decomposition).
//
// Suggest ranks the repairs by the redundant values they would save;
// Apply performs a repair on the document — hoisting one (LHS, RHS)
// pair per distinct LHS value into a new top-level lookup element and
// deleting the now-derivable RHS nodes — so the effect can be
// verified by re-running discovery.
package refine

import (
	"fmt"
	"sort"
	"strings"

	"discoverxfd/internal/core"
	"discoverxfd/internal/datatree"
	"discoverxfd/internal/relation"
	"discoverxfd/internal/schema"
)

// Suggestion is one proposed refinement.
type Suggestion struct {
	// FD is the redundancy-indicating FD being repaired.
	FD core.FD
	// NewElement is the label of the proposed top-level set element
	// that will hold one (LHS, RHS) pair per distinct LHS value.
	NewElement string
	// SavedValues counts the RHS occurrences the repair removes
	// beyond one per distinct LHS value.
	SavedValues int
	// Applicable reports whether Apply supports the FD: an
	// intra-relation FD over leaf LHS paths with a leaf or
	// simple-set RHS. Inter-relation and complex-valued repairs are
	// reported as suggestions only.
	Applicable bool
}

func (s Suggestion) String() string {
	tag := ""
	if !s.Applicable {
		tag = " (manual)"
	}
	return fmt.Sprintf("move %s of C(%s) into new element <%s> keyed by {%s}: saves %d value(s)%s",
		s.FD.RHS, s.FD.Class, s.NewElement, joinRels(s.FD.LHS), s.SavedValues, tag)
}

func joinRels(rs []schema.RelPath) string {
	parts := make([]string, len(rs))
	for i, r := range rs {
		parts[i] = string(r)
	}
	return strings.Join(parts, ", ")
}

// Suggest derives refinement suggestions from a discovery result,
// ranked by saved values (descending). Only FDs that witness at
// least one redundant value produce suggestions.
func Suggest(h *relation.Hierarchy, res *core.Result) []Suggestion {
	var out []Suggestion
	for _, r := range res.Redundancies {
		if r.RedundantValues == 0 {
			continue
		}
		s := Suggestion{
			FD:          r.FD,
			NewElement:  newElementLabel(r.FD),
			SavedValues: r.RedundantValues,
			Applicable:  applicable(h, r.FD),
		}
		out = append(out, s)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].SavedValues > out[j].SavedValues })
	return out
}

// newElementLabel derives a label like "book_title_by_ISBN".
func newElementLabel(fd core.FD) string {
	clean := func(p schema.RelPath) string {
		s := strings.TrimPrefix(string(p), "./")
		s = strings.ReplaceAll(s, "../", "up_")
		s = strings.ReplaceAll(s, "/", "_")
		if s == "." {
			s = "value"
		}
		return s
	}
	keys := make([]string, len(fd.LHS))
	for i, p := range fd.LHS {
		keys[i] = clean(p)
	}
	return fmt.Sprintf("%s_%s_by_%s", fd.Class.Last(), clean(fd.RHS), strings.Join(keys, "_"))
}

// applicable reports whether Apply supports the FD.
func applicable(h *relation.Hierarchy, fd core.FD) bool {
	if fd.Inter {
		return false
	}
	rel := h.ByPivot(fd.Class)
	if rel == nil {
		return false
	}
	check := func(p schema.RelPath, rhs bool) bool {
		i := rel.AttrIndex(p)
		if i < 0 {
			return false
		}
		switch rel.Attrs[i].Kind {
		case relation.Leaf:
			return p != "." // moving the pivot's own value is not meaningful
		case relation.SetValue:
			return rhs // a set RHS moves whole member collections
		default:
			return false
		}
	}
	for _, p := range fd.LHS {
		if !check(p, false) {
			return false
		}
	}
	return check(fd.RHS, true)
}

// Apply performs the repair on a copy of nothing — it mutates the
// given tree in place (callers wanting the original should reparse)
// and returns the number of RHS occurrences removed. The new lookup
// element is appended under the document root; original tuples keep
// their LHS elements as the join key. The mutated tree no longer
// conforms to the original schema; re-infer to continue working with
// it.
func Apply(t *datatree.Tree, h *relation.Hierarchy, fd core.FD) (int, error) {
	rel := h.ByPivot(fd.Class)
	if rel == nil {
		return 0, fmt.Errorf("refine: unknown tuple class %s", fd.Class)
	}
	if !applicable(h, fd) {
		return 0, fmt.Errorf("refine: Apply does not support %s (inter-relation or complex paths)", fd)
	}
	lhsIdx := make([]int, len(fd.LHS))
	for i, p := range fd.LHS {
		lhsIdx[i] = rel.AttrIndex(p)
	}
	rhsIdx := rel.AttrIndex(fd.RHS)
	rhsIsSet := rel.Attrs[rhsIdx].Kind == relation.SetValue

	type entry struct {
		lhsNodes []*datatree.Node // representative LHS leaves
		rhsNodes []*datatree.Node // representative RHS subtree(s)
	}
	seen := map[string]*entry{}
	var order []string
	removed := 0

	rhsSteps := attrSteps(fd.RHS)
	for ti := 0; ti < rel.NRows(); ti++ {
		pivot := rel.Node(ti)
		sig, ok := signature(rel, ti, lhsIdx)
		if !ok {
			continue // a missing LHS value: tuple keeps its RHS
		}
		rhsNodes := collectRHS(pivot, rhsSteps, rhsIsSet)
		if len(rhsNodes) == 0 {
			continue
		}
		e := seen[sig]
		if e == nil {
			// First occurrence: record representatives, keep data.
			e = &entry{}
			for _, p := range fd.LHS {
				if n := descendSteps(pivot, attrSteps(p)); n != nil {
					e.lhsNodes = append(e.lhsNodes, n)
				}
			}
			e.rhsNodes = rhsNodes
			seen[sig] = e
			order = append(order, sig)
		}
		// Every occurrence loses its RHS nodes (the lookup element
		// will hold the single authoritative copy).
		parentOf := rhsNodes[0].Parent
		removed += removeNodes(parentOf, rhsNodes)
	}

	// Build the lookup element.
	label := newElementLabel(fd)
	for _, sig := range order {
		e := seen[sig]
		lookup := t.Root.AddChild(label)
		for _, n := range e.lhsNodes {
			lookup.Children = append(lookup.Children, n.Clone())
		}
		for _, n := range e.rhsNodes {
			lookup.Children = append(lookup.Children, n.Clone())
		}
	}
	t.Renumber()
	return removed, nil
}

// attrSteps splits a "./a/b" attribute path into steps.
func attrSteps(p schema.RelPath) []string {
	s := strings.TrimPrefix(string(p), "./")
	if s == "." || s == "" {
		return nil
	}
	return strings.Split(s, "/")
}

func descendSteps(n *datatree.Node, steps []string) *datatree.Node {
	for _, s := range steps {
		n = n.Child(s)
		if n == nil {
			return nil
		}
	}
	return n
}

// collectRHS gathers the RHS node(s) under the pivot: a single leaf,
// or every member of a set element.
func collectRHS(pivot *datatree.Node, steps []string, isSet bool) []*datatree.Node {
	if !isSet {
		if n := descendSteps(pivot, steps); n != nil {
			return []*datatree.Node{n}
		}
		return nil
	}
	// Set members share the last step's label under the parent of the
	// final step.
	parent := pivot
	for _, s := range steps[:len(steps)-1] {
		parent = parent.Child(s)
		if parent == nil {
			return nil
		}
	}
	return parent.ChildrenLabeled(steps[len(steps)-1])
}

// signature encodes the tuple's LHS codes; ok is false when any is
// missing.
func signature(rel *relation.Relation, ti int, lhsIdx []int) (string, bool) {
	var b strings.Builder
	for _, ai := range lhsIdx {
		code := rel.Cols[ai][ti]
		if relation.IsNull(code) {
			return "", false
		}
		fmt.Fprintf(&b, "%d|", code)
	}
	return b.String(), true
}

// removeNodes deletes the given children from their parent, returning
// how many were removed.
func removeNodes(parent *datatree.Node, nodes []*datatree.Node) int {
	if parent == nil {
		return 0
	}
	drop := make(map[*datatree.Node]bool, len(nodes))
	for _, n := range nodes {
		drop[n] = true
	}
	kept := parent.Children[:0]
	removed := 0
	for _, c := range parent.Children {
		if drop[c] {
			removed++
			continue
		}
		kept = append(kept, c)
	}
	parent.Children = kept
	return removed
}

// Package anomaly detects update anomalies — the paper's second
// motivation for eliminating redundancies ("such data redundancies
// can lead to potential update anomalies, rendering the database
// inconsistent"). Given the constraints a document is supposed to
// satisfy (typically the FDs discovered on a trusted earlier
// version), Detect locates where an updated document violates them
// and names the exact disagreeing nodes — the classic symptom of
// updating one copy of a redundantly stored value and missing its
// duplicates. Advise goes the other way: before an update, it lists
// the companion nodes that must change together with the target.
package anomaly

import (
	"fmt"
	"sort"
	"strings"

	"discoverxfd/internal/core"
	"discoverxfd/internal/datatree"
	"discoverxfd/internal/relation"
	"discoverxfd/internal/schema"
)

// Occurrence is one RHS occurrence inside a conflict: the pivot node
// of the tuple and the rendered RHS value ("(missing)" when absent).
type Occurrence struct {
	// PivotKey is the pre-order node key of the tuple's pivot node.
	PivotKey int
	// PivotPath locates the pivot, e.g. /warehouse/state/store/book.
	PivotPath schema.Path
	// Value renders the RHS under that pivot: the leaf value, or the
	// collection/subtree in the debug notation for complex and set
	// RHS paths.
	Value string
}

// Conflict is one group of tuples agreeing on an FD's LHS but
// disagreeing on the RHS.
type Conflict struct {
	Occurrences []Occurrence
}

// Violation pairs a broken constraint with its conflicts.
type Violation struct {
	FD        core.FD
	Conflicts []Conflict
}

func (v Violation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s is violated:\n", v.FD)
	for _, c := range v.Conflicts {
		b.WriteString("  conflicting copies:\n")
		for _, o := range c.Occurrences {
			fmt.Fprintf(&b, "    node %d (%s): %s = %s\n", o.PivotKey, o.PivotPath, v.FD.RHS, o.Value)
		}
	}
	return strings.TrimRight(b.String(), "\n")
}

// Detect checks each FD against the hierarchy and reports the
// violations with their conflicting occurrences. Keys in the
// constraint list are checked for uniqueness; a duplicated key is
// reported as a violation whose conflicts list the colliding tuples.
func Detect(h *relation.Hierarchy, constraints []core.Constraint) ([]Violation, error) {
	var out []Violation
	for _, c := range constraints {
		fd := c.FD
		rhs := fd.RHS
		if c.IsKey {
			// A key is the FD LHS -> pivot identity; conflicts are
			// LHS groups with more than one tuple.
			rel := h.ByPivot(fd.Class)
			if rel == nil || rel.NAttrs() == 0 {
				return nil, fmt.Errorf("anomaly: unknown or empty tuple class %s", fd.Class)
			}
			groups, err := core.KeyCollisions(h, fd.Class, fd.LHS)
			if err != nil {
				return nil, err
			}
			if len(groups) > 0 {
				v := Violation{FD: fd}
				for _, g := range groups {
					v.Conflicts = append(v.Conflicts, renderConflict(h, fd.Class, fd.LHS[0], g))
				}
				out = append(out, v)
			}
			continue
		}
		groups, err := core.EvaluateConflicts(h, fd.Class, fd.LHS, rhs)
		if err != nil {
			return nil, err
		}
		if len(groups) == 0 {
			continue
		}
		v := Violation{FD: fd}
		for _, g := range groups {
			v.Conflicts = append(v.Conflicts, renderConflict(h, fd.Class, rhs, g.Tuples))
		}
		out = append(out, v)
	}
	return out, nil
}

// Advise lists, for an intended update of the RHS under the given
// pivot node, the companion pivot nodes whose copies must change in
// the same transaction for the FD to keep holding.
func Advise(h *relation.Hierarchy, fd core.FD, pivotKey int) ([]Occurrence, error) {
	rel := h.ByPivot(fd.Class)
	if rel == nil {
		return nil, fmt.Errorf("anomaly: unknown tuple class %s", fd.Class)
	}
	tuple := -1
	for t := 0; t < rel.NRows(); t++ {
		if rel.Keys[t] == pivotKey {
			tuple = t
			break
		}
	}
	if tuple < 0 {
		return nil, fmt.Errorf("anomaly: no tuple of %s has pivot key %d", fd.Class, pivotKey)
	}
	comp, err := core.Companions(h, fd.Class, fd.LHS, fd.RHS, tuple)
	if err != nil {
		return nil, err
	}
	occ := make([]Occurrence, 0, len(comp))
	for _, t := range comp {
		occ = append(occ, occurrence(h, fd.Class, fd.RHS, t))
	}
	sort.Slice(occ, func(i, j int) bool { return occ[i].PivotKey < occ[j].PivotKey })
	return occ, nil
}

func renderConflict(h *relation.Hierarchy, class schema.Path, rhs schema.RelPath, tuples []int) Conflict {
	c := Conflict{Occurrences: make([]Occurrence, 0, len(tuples))}
	for _, t := range tuples {
		c.Occurrences = append(c.Occurrences, occurrence(h, class, rhs, t))
	}
	sort.Slice(c.Occurrences, func(i, j int) bool { return c.Occurrences[i].PivotKey < c.Occurrences[j].PivotKey })
	return c
}

// occurrence renders the RHS under tuple t of the class.
func occurrence(h *relation.Hierarchy, class schema.Path, rhs schema.RelPath, t int) Occurrence {
	rel := h.ByPivot(class)
	o := Occurrence{PivotKey: rel.Keys[t], PivotPath: class}
	pivot := rel.Node(t)
	steps := strings.Split(strings.TrimPrefix(string(rhs), "./"), "/")
	if string(rhs) == "." {
		o.Value = renderNode(pivot)
		return o
	}
	// Walk to the RHS parent, then collect all children with the
	// final label (one for non-set elements, all members for sets).
	parent := pivot
	for _, s := range steps[:len(steps)-1] {
		parent = parent.Child(s)
		if parent == nil {
			o.Value = "(missing)"
			return o
		}
	}
	nodes := parent.ChildrenLabeled(steps[len(steps)-1])
	if len(nodes) == 0 {
		o.Value = "(missing)"
		return o
	}
	parts := make([]string, len(nodes))
	for i, n := range nodes {
		parts[i] = renderNode(n)
	}
	sort.Strings(parts)
	o.Value = strings.Join(parts, " + ")
	return o
}

// renderNode renders a leaf's value or a compact form of a subtree.
func renderNode(n *datatree.Node) string {
	if n.HasValue {
		return n.Value
	}
	if len(n.Children) == 0 {
		return "(empty)"
	}
	parts := make([]string, 0, len(n.Children))
	for _, c := range n.Children {
		parts = append(parts, c.Label+"="+renderNode(c))
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, ", ") + "}"
}

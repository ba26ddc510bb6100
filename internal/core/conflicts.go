package core

import (
	"context"
	"fmt"

	"discoverxfd/internal/relation"
	"discoverxfd/internal/schema"
)

// ConflictGroup is a set of tuples of the class that agree (non-null)
// on an FD's LHS but do not all carry the same non-null RHS value —
// the witness of one update anomaly.
type ConflictGroup struct {
	// Tuples are row indices into the class's relation.
	Tuples []int
}

// EvaluateConflicts returns the conflicting LHS groups of the FD
// ⟨class, lhs, rhs⟩ — empty when the FD holds. It is the detailed
// companion of Evaluate, used by update-anomaly detection to point at
// the exact pivot nodes that disagree.
func EvaluateConflicts(h *relation.Hierarchy, class schema.Path, lhs []schema.RelPath, rhs schema.RelPath) ([]ConflictGroup, error) {
	groups, rcol, err := lhsGroupsContext(context.Background(), h, class, lhs, rhs)
	if err != nil {
		return nil, err
	}
	var out []ConflictGroup
	for _, g := range groups {
		if len(g) < 2 {
			continue
		}
		agree := true
		first := rcol[g[0]]
		if relation.IsNull(first) {
			agree = false
		} else {
			for _, t := range g[1:] {
				if relation.IsNull(rcol[t]) || rcol[t] != first {
					agree = false
					break
				}
			}
		}
		if !agree {
			out = append(out, ConflictGroup{Tuples: g})
		}
	}
	return out, nil
}

// Companions returns, for the given tuple of the class, the other
// tuples that agree with it (non-null) on the FD's LHS — the copies
// that must be co-updated whenever the tuple's RHS changes, lest the
// FD break. The tuple itself is not included.
func Companions(h *relation.Hierarchy, class schema.Path, lhs []schema.RelPath, rhs schema.RelPath, tuple int) ([]int, error) {
	groups, _, err := lhsGroupsContext(context.Background(), h, class, lhs, rhs)
	if err != nil {
		return nil, err
	}
	for _, g := range groups {
		for _, t := range g {
			if t == tuple {
				out := make([]int, 0, len(g)-1)
				for _, o := range g {
					if o != tuple {
						out = append(out, o)
					}
				}
				return out, nil
			}
		}
	}
	return nil, nil // vacuous tuple (a null LHS value): no companions
}

// KeyCollisions returns the groups of two or more tuples of the class
// that agree (non-null) on lhs — the tuples a key over lhs fails to
// tell apart — in order of their first tuple, ascending within each.
// It is the key's counterpart of EvaluateConflicts, built in one pass
// over the class.
func KeyCollisions(h *relation.Hierarchy, class schema.Path, lhs []schema.RelPath) ([][]int, error) {
	origin := h.ByPivot(class)
	if origin == nil || origin.NAttrs() == 0 {
		return nil, fmt.Errorf("core: no tuple class with pivot %s and attributes", class)
	}
	// Any attribute of the pivot serves as the RHS the builder
	// resolves; only the LHS groups are read.
	groups, _, err := lhsGroupsContext(context.Background(), h, class, lhs, origin.Attrs[0].Rel)
	if err != nil {
		return nil, err
	}
	var out [][]int
	for _, g := range groups {
		if len(g) >= 2 {
			out = append(out, g)
		}
	}
	return out, nil
}

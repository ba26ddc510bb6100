package core

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"discoverxfd/internal/partition"
	"discoverxfd/internal/relation"
	"discoverxfd/internal/schema"
)

// Evaluation is the outcome of directly checking an XML FD against a
// hierarchy, independent of the discovery machinery. Discovery
// results are cross-validated against this evaluator in the test
// suite.
type Evaluation struct {
	// Holds reports whether the FD is satisfied under strong
	// satisfaction semantics (Definition 7): pairs with a missing LHS
	// value are vacuous; agreeing pairs must have equal, non-missing
	// RHS values.
	Holds bool
	// Violations counts tuple pairs that agree on the LHS but
	// disagree (or are missing) on the RHS.
	Violations int
	// LHSIsKey reports whether the LHS uniquely identifies each tuple
	// of the class (Definition 8).
	LHSIsKey bool
	// Witnesses counts redundant RHS occurrences: over every
	// LHS-equal group, the occurrences beyond the first.
	Witnesses int
	// WitnessGroups counts LHS-equal groups of two or more tuples.
	WitnessGroups int
	// Error is the g3 measure: the minimum fraction of the class's
	// tuples to remove so the FD holds exactly (0 when Holds).
	Error float64
}

// ref locates one FD path: an attribute of the origin relation or of
// one of its ancestors.
type ref struct {
	rel  *relation.Relation
	ups  int // how many parent hops from the origin relation
	attr int
}

// resolveRef maps a pivot-relative path of the FD notation to the
// relation and attribute that encode it.
func resolveRef(h *relation.Hierarchy, origin *relation.Relation, rp schema.RelPath) (ref, error) {
	s := string(rp)
	ups := 0
	for strings.HasPrefix(s, "../") || s == ".." {
		ups++
		if s == ".." {
			s = "."
			break
		}
		s = s[3:]
	}
	rel := origin
	for i := 0; i < ups; i++ {
		if rel.Parent == nil {
			return ref{}, fmt.Errorf("core: path %s ascends above the root from class %s", rp, origin.Pivot)
		}
		rel = rel.Parent
	}
	local := schema.RelPath(s)
	if s != "." && !strings.HasPrefix(s, "./") {
		local = schema.RelPath("./" + s)
	}
	ai := rel.AttrIndex(local)
	if ai < 0 {
		return ref{}, fmt.Errorf("core: path %s (local %s) is not an attribute of relation %s", rp, local, rel.Pivot)
	}
	return ref{rel: rel, ups: ups, attr: ai}, nil
}

// Evaluate checks the XML FD ⟨C_class, lhs, rhs⟩ directly against the
// hierarchy by materializing each tuple's LHS signature (walking
// parent links for ancestor paths) and comparing RHS codes within
// LHS-equal groups.
func Evaluate(h *relation.Hierarchy, class schema.Path, lhs []schema.RelPath, rhs schema.RelPath) (Evaluation, error) {
	return EvaluateContext(context.Background(), h, class, lhs, rhs)
}

// evalCheckInterval is how many tuples are processed between context
// checks in lhsGroupsContext.
const evalCheckInterval = 4096

// EvaluateContext is Evaluate with cancellation, checked periodically
// over the class's tuples.
func EvaluateContext(ctx context.Context, h *relation.Hierarchy, class schema.Path, lhs []schema.RelPath, rhs schema.RelPath) (Evaluation, error) {
	groups, rcol, err := lhsGroupsContext(ctx, h, class, lhs, rhs)
	if err != nil {
		return Evaluation{}, err
	}
	ev := Evaluation{Holds: true, LHSIsKey: true}
	removals := 0
	for _, g := range groups {
		if len(g) < 2 {
			continue
		}
		ev.LHSIsKey = false
		// Count RHS value multiplicities within the group; nulls are
		// pairwise distinct under strong satisfaction.
		counts := make(map[int64]int, len(g))
		max := 1
		agree := true
		first := rcol[g[0]]
		if relation.IsNull(first) {
			agree = false
		}
		for i, t := range g {
			code := rcol[t]
			if i > 0 && (relation.IsNull(code) || code != first) {
				agree = false
			}
			if relation.IsNull(code) {
				continue
			}
			counts[code]++
			if counts[code] > max {
				max = counts[code]
			}
		}
		removals += len(g) - max
		if agree {
			ev.WitnessGroups++
			ev.Witnesses += len(g) - 1
		} else {
			ev.Holds = false
			ev.Violations += len(g) - 1
		}
	}
	if n := len(rcol); n > 0 {
		ev.Error = float64(removals) / float64(n)
	}
	return ev, nil
}

// lhsGroupsContext resolves the FD ⟨class, lhs, rhs⟩ against the
// hierarchy and materializes the class's LHS-equal groups, in order of
// their first tuple, with the RHS column. Each tuple's LHS signature is
// read by walking parent links for ancestor paths; a tuple with a
// missing or null LHS value is vacuous under strong satisfaction and
// joins no group. The RHS must stay within the pivot's subtree. ctx is
// checked every evalCheckInterval tuples. It is the one LHS-group
// builder behind Evaluate, EvaluateConflicts and Companions.
func lhsGroupsContext(ctx context.Context, h *relation.Hierarchy, class schema.Path, lhs []schema.RelPath, rhs schema.RelPath) ([][]int, []int64, error) {
	origin := h.ByPivot(class)
	if origin == nil {
		return nil, nil, fmt.Errorf("core: no tuple class with pivot %s", class)
	}
	refs := make([]ref, 0, len(lhs))
	for _, rp := range lhs {
		r, err := resolveRef(h, origin, rp)
		if err != nil {
			return nil, nil, err
		}
		refs = append(refs, r)
	}
	rref, err := resolveRef(h, origin, rhs)
	if err != nil {
		return nil, nil, err
	}
	if rref.ups != 0 {
		return nil, nil, fmt.Errorf("core: RHS %s of an interesting FD must stay within the pivot's subtree", rhs)
	}

	n := origin.NRows()
	bySig := make(map[string]int, n)
	var groups [][]int
	var sig strings.Builder
	for t := 0; t < n; t++ {
		if t%evalCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, fmt.Errorf("core: evaluation cancelled: %w", err)
			}
		}
		sig.Reset()
		null := false
		for _, r := range refs {
			at, ok := ancestorTuple(origin, t, r.ups)
			if !ok {
				null = true
				break
			}
			code := r.rel.Cols[r.attr][at]
			if relation.IsNull(code) {
				null = true
				break
			}
			sig.WriteString(strconv.FormatInt(code, 10))
			sig.WriteByte('|')
		}
		if null {
			continue
		}
		key := sig.String()
		gi, ok := bySig[key]
		if !ok {
			gi = len(groups)
			bySig[key] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], t)
	}
	return groups, origin.Cols[rref.attr], nil
}

// verifier derives the Evaluation of each candidate FD of the verify
// stage from partitions (see verifyFD). It lives for one stage on one
// goroutine.
type verifier struct {
	h     *relation.Hierarchy
	cache *partitionCache
	naive bool
	sc    *partition.Scratch

	// lifts memoizes lifted attribute partitions for the length of the
	// stage, keyed by (origin, relation, attribute), the relations by
	// Relation.Index.
	lifts  map[[3]int]*lifted
	codes  []int64 // the lifted column being built
	counts []int32 // RHS multiplicities by dense code; all zero between groups
}

func newVerifier(h *relation.Hierarchy, cache *partitionCache, naive bool) *verifier {
	rows := 0
	for _, r := range h.Relations {
		rows = max(rows, r.NRows())
	}
	return &verifier{h: h, cache: cache, naive: naive, sc: partition.GetScratch(rows),
		lifts: make(map[[3]int]*lifted)}
}

// close returns the pooled scratch.
func (v *verifier) close() {
	partition.PutScratch(v.sc)
	v.sc = nil
}

// lhsPartition returns Π_LHS over the origin's rows for an LHS that
// reaches into ancestor relations: the product of its attributes'
// lifted partitions.
func (v *verifier) lhsPartition(origin *relation.Relation, refs []ref) *partition.Partition {
	p := v.lift(origin, refs[0]).p
	for _, r := range refs[1:] {
		if p.IsKey() {
			break // every row is a singleton already
		}
		p = p.Product(v.lift(origin, r).groupIDs(), v.sc)
	}
	return p
}

// lifted is a memoized lifted partition with its row→group ids, which
// are computed the first time the lift is a right operand of a
// product.
type lifted struct {
	p   *partition.Partition
	ids []int32
}

func (l *lifted) groupIDs() []int32 {
	if l.ids == nil {
		l.ids = l.p.GroupIDs()
	}
	return l.ids
}

// lift returns the partition of the origin's rows by one LHS
// attribute, memoized for the stage. An ancestor attribute's code is
// read by walking ParentIdx up from each origin row; a missing
// ancestor or a null value gets a row-unique null code, so the row is
// a singleton — exactly the tuples Evaluate skips as vacuous.
func (v *verifier) lift(origin *relation.Relation, r ref) *lifted {
	key := [3]int{origin.Index, r.rel.Index, r.attr}
	if l, ok := v.lifts[key]; ok {
		return l
	}
	var p *partition.Partition
	if r.ups == 0 {
		p = origin.ColumnPartition(r.attr)
	} else {
		n := origin.NRows()
		if cap(v.codes) < n {
			v.codes = make([]int64, n)
		}
		codes, col := v.codes[:n], r.rel.Cols[r.attr]
		for t := range codes {
			codes[t] = -1 - int64(t)
			if at, ok := ancestorTuple(origin, t, r.ups); ok && !relation.IsNull(col[at]) {
				codes[t] = col[at]
			}
		}
		bound := int64(0) // not dense-coded: FromDense falls back to hashing
		if r.attr < len(r.rel.ColBound) {
			bound = r.rel.ColBound[r.attr]
		}
		p = partition.FromDense(codes, bound)
	}
	l := &lifted{p: p}
	v.lifts[key] = l
	return l
}

// evaluation derives the Evaluation of LHS → rhs from Π_LHS, whose
// groups are exactly Evaluate's LHS-equal groups of two or more tuples:
// a null LHS value carries a row-unique code, so its tuple falls into a
// stripped singleton, the vacuous pairs Evaluate skips. rcol is the RHS
// column, its non-null codes dense in [1, bound); their multiplicities
// per group are counted in v.counts.
func (v *verifier) evaluation(p *partition.Partition, rcol []int64, bound int64) Evaluation {
	if int(bound) > len(v.counts) {
		v.counts = make([]int32, bound)
	}
	ev := Evaluation{Holds: true, LHSIsKey: p.IsKey()}
	removals := 0
	for i := range p.Size() {
		g := p.Group(i)
		first := rcol[g[0]]
		agree := !relation.IsNull(first)
		most := int32(1)
		for _, t := range g {
			c := rcol[t]
			if relation.IsNull(c) {
				agree = false // nulls are pairwise distinct under strong satisfaction
				continue
			}
			agree = agree && c == first
			v.counts[c]++
			most = max(most, v.counts[c])
		}
		for _, t := range g {
			if c := rcol[t]; !relation.IsNull(c) {
				v.counts[c] = 0
			}
		}
		removals += len(g) - int(most)
		if agree {
			ev.WitnessGroups++
			ev.Witnesses += len(g) - 1
		} else {
			ev.Holds = false
			ev.Violations += len(g) - 1
		}
	}
	if p.NRows > 0 {
		ev.Error = float64(removals) / float64(p.NRows)
	}
	return ev
}

// ancestorTuple walks ups parent links from tuple t of origin.
func ancestorTuple(origin *relation.Relation, t, ups int) (int, bool) {
	rel := origin
	cur := int32(t)
	for i := 0; i < ups; i++ {
		if rel.Parent == nil {
			return 0, false
		}
		cur = rel.ParentIdx[cur]
		rel = rel.Parent
		if cur < 0 {
			return 0, false
		}
	}
	return int(cur), true
}

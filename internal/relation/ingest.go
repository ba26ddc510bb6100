package relation

import (
	"context"
	"errors"
	"fmt"

	"discoverxfd/internal/datatree"
	"discoverxfd/internal/schema"
	"discoverxfd/internal/source"
)

// errBudgetExhausted aborts ingestion once the tuple or wall-clock
// budget runs out; Ingest converts it into a truncated (but valid)
// hierarchy rather than an error.
var errBudgetExhausted = errors.New("relation: ingestion budget exhausted")

// Ingest is the single entry seam between document producers and the
// hierarchical representation: it builds the hierarchy from one
// source.Input, whichever shape the producer delivered. Both shapes
// hand the root's children, in document order, to the one builder;
// the shape decides what the builder retains. A materialized tree
// keeps its pre-order node keys, pivot nodes and encoding state, so
// the hierarchy is updatable; a root-child stream keeps none of them
// (sequence keys, memory proportional to the representation plus one
// subtree). BuildContext and BuildStreamContext are thin wrappers
// over this seam.
func Ingest(ctx context.Context, in source.Input, s *schema.Schema, opts Options) (*Hierarchy, error) {
	switch {
	case in.Tree != nil:
		t := in.Tree
		if t.Root == nil {
			return nil, ErrEmptyTree
		}
		if t.Root.Label != s.Root {
			return nil, &RootMismatchError{What: "tree", Root: t.Root.Label, SchemaRoot: s.Root}
		}
		b, err := newBuilder(ctx, s, opts, t)
		if err != nil {
			return nil, err
		}
		for i, c := range t.Root.Children {
			err := b.addRootChild(c)
			if errors.Is(err, errBudgetExhausted) {
				// A truncated tree describes the document prefix a
				// truncated stream would have delivered: the root tuple
				// sees only the root children ingested so far.
				b.root = &datatree.Node{Label: t.Root.Label, Children: t.Root.Children[:i]}
				break
			}
			if err != nil {
				return nil, err
			}
		}
		return b.finish(), nil
	case in.Stream != nil:
		// The producer owns its reader and parse limits; this side owns
		// layout, budgets, and the root-label check.
		b, err := newBuilder(ctx, s, opts, nil)
		if err != nil {
			return nil, err
		}
		rootLabel, err := in.Stream(ctx, b.addRootChild)
		if err != nil && !errors.Is(err, errBudgetExhausted) {
			return nil, err
		}
		if rootLabel != s.Root {
			return nil, &RootMismatchError{What: "document", Root: rootLabel, SchemaRoot: s.Root}
		}
		return b.finish(), nil
	default:
		return nil, fmt.Errorf("relation: source input carries neither a tree nor a stream")
	}
}

// builder constructs the hierarchical representation incrementally,
// one root-child subtree at a time, so a large document never needs
// to be fully materialized: memory stays proportional to the
// representation (columns of codes) plus the largest single subtree.
// It is the only hierarchy builder; Ingest drives it.
//
// What a build retains follows the input's shape. Built from a tree,
// tuples carry the pivot nodes' pre-order keys, Relation.Node returns
// the pivot nodes, and the encoding state (patchState) stays on the
// hierarchy so Apply can re-encode mutated tuples. Built from a
// stream, tuples carry sequence numbers instead, pivot nodes are not
// retained (Relation.Node returns nil) and each root child's encoder
// memo is dropped once it is processed, so witness *counting* and
// discovery work identically but node-level reporting (refine.Apply,
// anomaly occurrences) and updates need the tree.
type builder struct {
	h      *Hierarchy
	opts   Options
	ps     *patchState
	budget *buildBudget

	// root is the root tuple's pivot: the tree's root node, or for a
	// stream a synthetic root accumulating the non-set root children
	// (leaf attributes and complex containers, including any set
	// elements nested below them), encoded at finish.
	root *datatree.Node
	// rootSetCodes accumulates, for a stream, the member subtree codes
	// of the root relation's set pseudo-attributes, by child relation
	// index: those members arrive one addRootChild at a time and are
	// discarded after it.
	rootSetCodes [][]int
	seq          int
}

// newBuilder lays out the relation tree for the schema and returns an
// empty builder. A non-nil tree selects retention (see builder).
func newBuilder(ctx context.Context, s *schema.Schema, opts Options, t *datatree.Tree) (*builder, error) {
	h, err := layoutHierarchy(s, opts)
	if err != nil {
		return nil, err
	}
	b := &builder{h: h, opts: opts, ps: newPatchState(t, h)}
	b.budget = &buildBudget{ctx: ctx, opts: &b.opts, h: h}
	root := h.Root
	root.ParentIdx = []int32{-1}
	if t != nil {
		b.root = t.Root
		root.Keys = []int{t.Root.Key}
		root.nodes = []*datatree.Node{t.Root}
	} else {
		b.root = &datatree.Node{Label: s.Root}
		root.Keys = []int{0}
		b.rootSetCodes = make([][]int, len(h.Relations))
	}
	return b, nil
}

// addRootChild ingests one direct child of the document root (element
// subtree or "@attr" leaf). Members of set elements are converted to
// tuples immediately; a streamed one then becomes garbage. A non-set
// child yields the tuples of any set elements nested below it, and is
// kept (a streamed one under the synthetic root) for finish, which
// encodes the root tuple. Tuples are thus admitted in document order.
// Once the ingestion budget is exhausted it returns
// errBudgetExhausted, which Ingest maps to a truncated hierarchy.
func (b *builder) addRootChild(n *datatree.Node) error {
	if err := b.budget.cancelled(); err != nil {
		return err
	}
	if b.h.Truncated {
		return errBudgetExhausted
	}
	stream := b.ps.tree == nil
	for _, rel := range b.h.Root.Children {
		if len(rel.steps) != 1 || rel.steps[0] != n.Label {
			continue
		}
		if stream && !b.opts.DisableSetAttrs {
			b.rootSetCodes[rel.Index] = append(b.rootSetCodes[rel.Index], b.ps.enc.Encode(n))
		}
		if err := b.addTuple(rel, n, 0); err != nil {
			return err
		}
		if stream {
			b.ps.enc.Forget(n)
		}
		return nil
	}
	// Validate the label exists in the schema at all.
	if _, err := b.h.Schema.Resolve(b.h.Root.Pivot.Child(n.Label)); err != nil {
		return fmt.Errorf("relation: %w", err)
	}
	if stream {
		n.Parent = b.root
		b.root.Children = append(b.root.Children, n)
	}
	// Set elements nested below this container, e.g. /doc/meta/tag.
	for _, rel := range b.h.Root.Children {
		if len(rel.steps) > 1 && rel.steps[0] == n.Label {
			if err := b.addMembers(rel, follow(n, rel.steps[1:len(rel.steps)-1]), 0); err != nil {
				return err
			}
		}
	}
	return nil
}

// finish encodes the root tuple and returns the hierarchy.
func (b *builder) finish() *Hierarchy {
	root := b.h.Root
	for ai, a := range root.Attrs {
		var code int64
		if codes := b.topLevelCodes(a); len(codes) > 0 {
			code = b.ps.dense(root, ai, int64(b.ps.setOfCodes(codes)))
		} else {
			code = b.ps.cell(root, ai, b.root, 0)
		}
		root.Cols[ai] = append(root.Cols[ai], code)
	}
	if b.ps.tree != nil {
		b.h.upd = b.ps
	}
	return b.h
}

// topLevelCodes returns the streamed member codes behind a root set
// pseudo-attribute, or nil when the attribute is not one (or the
// build retains the tree, whose root node still holds the members).
func (b *builder) topLevelCodes(a Attr) []int {
	if b.rootSetCodes == nil || a.Kind != SetValue {
		return nil
	}
	return b.rootSetCodes[b.h.byPivot[a.Path].Index]
}

// addTuple converts the subtree rooted at pivot into one tuple of rel
// (plus, recursively, tuples of rel's descendants). A tuple beyond
// the ingestion budget is skipped (the hierarchy is then marked
// truncated); only cancellation is an error.
func (b *builder) addTuple(rel *Relation, pivot *datatree.Node, parentRow int32) error {
	ok, err := b.budget.admit()
	if err != nil || !ok {
		return err
	}
	row := rel.NRows()
	if b.ps.tree != nil {
		rel.Keys = append(rel.Keys, pivot.Key)
		rel.nodes = append(rel.nodes, pivot)
	} else {
		b.seq++
		rel.Keys = append(rel.Keys, b.seq)
	}
	rel.ParentIdx = append(rel.ParentIdx, parentRow)
	for ai := range rel.Attrs {
		rel.Cols[ai] = append(rel.Cols[ai], b.ps.cell(rel, ai, pivot, row))
	}
	for _, child := range rel.Children {
		if err := b.addMembers(child, follow(pivot, child.steps[:len(child.steps)-1]), int32(row)); err != nil {
			return err
		}
	}
	return nil
}

// addMembers adds a tuple of rel under parentRow for every member of
// rel's set element in container (the node the set's members hang
// off, nil if absent), in document order.
func (b *builder) addMembers(rel *Relation, container *datatree.Node, parentRow int32) error {
	if container == nil {
		return nil
	}
	label := rel.steps[len(rel.steps)-1]
	for _, m := range container.Children {
		if m.Label != label {
			continue
		}
		if err := b.addTuple(rel, m, parentRow); err != nil {
			return err
		}
	}
	return nil
}

// patchState is the encoding state of a build: the subtree encoder,
// and the per-relation interners and densifier remap tables that turn
// values and subtree codes into dense per-column codes. A build from a
// tree retains it, together with the tree, to stay updatable; all
// tables then grow append-only under updates.
type patchState struct {
	tree     *datatree.Tree // nil for a streamed build
	enc      *datatree.Encoder
	ordered  bool                // Hierarchy.OrderedSets
	in       []*interner         // by Relation.Index
	remap    [][]map[int64]int64 // by Relation.Index, then attr index (Complex/SetValue)
	rowByKey []map[int]int32     // by Relation.Index: pivot key → row; built lazily
	codes    []int               // reused buffer of member codes for set cells
}

// newPatchState allocates the encoding tables of every relation of h
// and readies its columns: empty, with every dense bound at 1.
func newPatchState(t *datatree.Tree, h *Hierarchy) *patchState {
	ps := &patchState{
		tree:    t,
		enc:     &datatree.Encoder{},
		ordered: h.OrderedSets,
		in:      make([]*interner, len(h.Relations)),
		remap:   make([][]map[int64]int64, len(h.Relations)),
	}
	for _, r := range h.Relations {
		ps.in[r.Index] = newInterner(len(r.Attrs))
		ps.remap[r.Index] = make([]map[int64]int64, len(r.Attrs))
		r.Cols = make([][]int64, len(r.Attrs))
		r.ColBound = make([]int64, len(r.Attrs))
		for ai, a := range r.Attrs {
			r.ColBound[ai] = 1
			if a.Kind != Leaf {
				ps.remap[r.Index][ai] = make(map[int64]int64)
			}
		}
	}
	return ps
}

// cell encodes column ai of relation r for the tuple at row whose
// pivot node is pivot. It is the one column-encoding rule: the
// builder appends its codes, and Apply re-encodes changed tuples
// with it.
//
//   - leaf: the interner's dense code of the value;
//   - complex: the canonical code of the subtree (node-value
//     equality);
//   - set: the multiset code of the member subtrees, or their list
//     code under OrderedSets;
//   - missing (no node, a valueless leaf, an empty set): nullCode(row).
//
// Complex and set codes are densified cell by cell through the
// column's remap, so every non-null code lies in [1, ColBound[ai])
// and partition builds stay on the counting path.
func (ps *patchState) cell(r *Relation, ai int, pivot *datatree.Node, row int) int64 {
	steps := r.attrSteps[ai]
	switch r.Attrs[ai].Kind {
	case SetValue:
		container := follow(pivot, steps[:len(steps)-1])
		if container == nil {
			return nullCode(row)
		}
		label := steps[len(steps)-1]
		codes := ps.codes[:0]
		for _, m := range container.Children {
			if m.Label == label {
				codes = append(codes, ps.enc.Encode(m))
			}
		}
		ps.codes = codes
		if len(codes) == 0 {
			return nullCode(row)
		}
		return ps.dense(r, ai, int64(ps.setOfCodes(codes)))
	case Complex:
		n := follow(pivot, steps)
		if n == nil {
			return nullCode(row)
		}
		return ps.dense(r, ai, int64(ps.enc.Encode(n)))
	default: // Leaf
		n := follow(pivot, steps)
		if n == nil || !n.HasValue {
			return nullCode(row)
		}
		in := ps.in[r.Index]
		code := in.code(ai, n.Value)
		r.ColBound[ai] = in.bound(ai)
		return code
	}
}

// setOfCodes interns a collection of member subtree codes, in
// document order, under the hierarchy's set semantics.
func (ps *patchState) setOfCodes(codes []int) int {
	if ps.ordered {
		return ps.enc.ListOfCodes(codes)
	}
	return ps.enc.MultisetOfCodes(codes)
}

// dense maps an encoder code to column ai's dense code, extending the
// remap (and the column bound) for codes never seen in this column.
// Encoder codes are interned append-only, so the mapping stays valid
// forever: a re-encoded, unchanged subtree maps back to its old dense
// code.
func (ps *patchState) dense(r *Relation, ai int, code int64) int64 {
	m := ps.remap[r.Index][ai]
	if d, ok := m[code]; ok {
		return d
	}
	d := r.ColBound[ai]
	m[code] = d
	r.ColBound[ai]++
	return d
}

// follow walks label steps (all non-set elements) down from n; no
// steps return n itself. It returns nil if any step is missing.
func follow(n *datatree.Node, steps []string) *datatree.Node {
	for _, s := range steps {
		if n = n.Child(s); n == nil {
			return nil
		}
	}
	return n
}

// Package relation implements the hierarchical representation of an
// XML document (the paper's Section 4.1, Figure 6): one relation per
// essential tuple class (Section 3.2.2), i.e. per set element of the
// schema. Each relation carries
//
//   - a @key column (the pivot node's pre-order key),
//   - a parent column linking each tuple to its tuple in the
//     lowest-repeatable-ancestor tuple class,
//   - one value column per non-repeatable schema element whose longest
//     repeatable prefix is the pivot path (leaf elements are
//     dictionary-encoded by value, complex elements by the canonical
//     code of their subtree under node-value equality), and
//   - one *set pseudo-attribute* per child set element (Section 4.4):
//     the canonical code of the unordered collection of that child's
//     subtrees beneath the tuple, which lets the ordinary partition
//     machinery discover FDs whose LHS or RHS is a set element (the
//     paper's FD 3 and FD 4).
//
// Missing elements receive a unique negative code per tuple, which
// realizes strong satisfaction (nulls differ from everything,
// including each other) directly in the partitions.
//
// One builder produces the representation (Ingest): it consumes the
// root's children one subtree at a time, whether they come from a
// materialized tree or from a stream, and encodes every column cell
// with the same rule the in-place update path (Apply) re-encodes with.
package relation

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"

	"discoverxfd/internal/datatree"
	"discoverxfd/internal/partition"
	"discoverxfd/internal/schema"
	"discoverxfd/internal/source"
)

// AttrKind classifies relation attributes.
type AttrKind int

const (
	// Leaf is a simple-typed, non-repeatable element; its code is a
	// dictionary code of the (type-normalized) value.
	Leaf AttrKind = iota
	// Complex is a record/choice-typed, non-repeatable element; its
	// code is the canonical code of its subtree (node-value equality).
	Complex
	// SetValue is a set pseudo-attribute for a child set element; its
	// code identifies the unordered collection of child subtrees
	// (or the ordered list, if the representation was built with
	// OrderedSets).
	SetValue
)

func (k AttrKind) String() string {
	switch k {
	case Leaf:
		return "leaf"
	case Complex:
		return "complex"
	case SetValue:
		return "set"
	default:
		return fmt.Sprintf("AttrKind(%d)", int(k))
	}
}

// Attr is one attribute (column) of a relation.
type Attr struct {
	// Rel is the attribute's path relative to the pivot, e.g.
	// "./contact/name", or "." for the self value of a simple set
	// element such as author.
	Rel schema.RelPath
	// Path is the absolute schema path of the attribute's element.
	Path schema.Path
	// Kind classifies how the column was encoded.
	Kind AttrKind
}

// Name returns the attribute's display name: the relative path
// without the leading "./".
func (a Attr) Name() string {
	s := string(a.Rel)
	if s == "." {
		return "."
	}
	return strings.TrimPrefix(s, "./")
}

// Relation is one relation of the hierarchical representation,
// corresponding to the tuple class C_p for pivot path p.
type Relation struct {
	// Pivot is the pivot path of the tuple class.
	Pivot schema.Path
	// Index is the relation's position in Hierarchy.Relations (root
	// first, top-down), assigned once at layout time. Per-run engine
	// state (depth tables, null-row indexes) is kept in plain slices
	// indexed by it, avoiding pointer-keyed maps whose iteration order
	// the determinism analyzers would otherwise have to reason about.
	// Relations built outside a Hierarchy (single-relation baselines,
	// hand-assembled tests) leave it 0.
	Index int
	// Essential reports whether the tuple class is essential (pivot
	// is a repeatable path). The synthetic root relation is the only
	// non-essential one; it anchors top-level set elements.
	Essential bool
	// Parent is the relation of the lowest-repeatable-ancestor tuple
	// class (nil for the root relation).
	Parent *Relation
	// Children are the relations whose lowest-repeatable-ancestor
	// class is this one, in schema declaration order.
	Children []*Relation

	// Attrs describes the value columns.
	Attrs []Attr
	// Cols holds one code slice per attribute, indexed like Attrs;
	// Cols[a][t] is the code of attribute a in tuple t. Codes < 0 are
	// nulls (unique per tuple).
	Cols [][]int64
	// ColBound holds, per attribute, the exclusive upper bound of the
	// column's interned codes: non-null codes are dense in
	// [1, ColBound[a]). A bound of 0 (or a nil slice, for hand-built
	// relations) means the column is not dense-coded and partition
	// builds fall back to the generic hashing path.
	ColBound []int64
	// Keys holds the pivot node's pre-order key per tuple (the @key
	// column).
	Keys []int
	// ParentIdx holds, per tuple, the row index of its parent tuple
	// in Parent (-1 only in the root relation).
	ParentIdx []int32

	nodes []*datatree.Node // pivot nodes, parallel to tuples (nil when streamed)
	// steps is the label path from the parent relation's pivot to this
	// pivot; attrSteps holds each attribute's label path from the pivot
	// (empty for the self value "."). Layout splits them once, so no
	// tuple re-parses a relative path.
	steps     []string
	attrSteps [][]string
}

// NRows returns the number of tuples.
func (r *Relation) NRows() int { return len(r.Keys) }

// NAttrs returns the number of value columns.
func (r *Relation) NAttrs() int { return len(r.Attrs) }

// AttrIndex returns the index of the attribute with the given
// relative path, or -1.
func (r *Relation) AttrIndex(rel schema.RelPath) int {
	for i, a := range r.Attrs {
		if a.Rel == rel {
			return i
		}
	}
	return -1
}

// Node returns the pivot data node of tuple t (for witness
// reporting). Only hierarchies built from a materialized tree retain
// their pivot nodes; a streamed hierarchy returns nil.
func (r *Relation) Node(t int) *datatree.Node {
	if r.nodes == nil {
		return nil
	}
	return r.nodes[t]
}

// ColumnPartition builds the striped partition of a single column,
// using the dense counting path when the column's codes were interned
// (ColBound known) and the generic hashing path otherwise.
func (r *Relation) ColumnPartition(attr int) *partition.Partition {
	if attr < len(r.ColBound) {
		return partition.FromDense(r.Cols[attr], r.ColBound[attr])
	}
	return partition.FromCodes(r.Cols[attr])
}

// Hierarchy is the full hierarchical representation of a document:
// the relation tree plus lookup tables.
type Hierarchy struct {
	// Root is the synthetic root relation (non-essential, one tuple).
	Root *Relation
	// Relations lists all relations in top-down (BFS) order, root
	// first.
	Relations []*Relation
	// Schema is the schema the representation was built against.
	Schema *schema.Schema
	// OrderedSets records whether set pseudo-attributes used ordered
	// list semantics instead of the default unordered multiset
	// semantics (Section 4.5 ablation).
	OrderedSets bool
	// Truncated reports that tuple ingestion stopped early because a
	// resource budget (Options.MaxTuples or Options.Deadline) ran out;
	// the representation is structurally consistent but covers only a
	// prefix of the document's tuples. TruncatedReason says which
	// budget was exhausted.
	Truncated       bool
	TruncatedReason string

	byPivot map[schema.Path]*Relation

	// mu serializes document updates against discovery runs: Apply
	// holds the write side, runs and evaluations the read side (see
	// Lock/RLock). The zero value works for hand-assembled hierarchies.
	mu sync.RWMutex
	// upd is the retained encoding state (tree, subtree encoder,
	// interners, densifier remaps) that makes in-place updates
	// possible; nil for streamed or hand-assembled hierarchies.
	upd *patchState
}

// RLock takes the hierarchy's read lock. Discovery runs and direct
// evaluations hold it for their whole duration, so updates (which
// take Lock) never observe — or publish partitions into — a run in
// flight.
func (h *Hierarchy) RLock() { h.mu.RLock() }

// RUnlock releases the read lock.
func (h *Hierarchy) RUnlock() { h.mu.RUnlock() }

// Lock takes the hierarchy's write lock for a document update.
func (h *Hierarchy) Lock() { h.mu.Lock() }

// Unlock releases the write lock.
func (h *Hierarchy) Unlock() { h.mu.Unlock() }

// truncate records the first budget exhaustion; later ones keep the
// original reason.
func (h *Hierarchy) truncate(reason string) {
	if !h.Truncated {
		h.Truncated = true
		h.TruncatedReason = reason
	}
}

// ByPivot returns the relation with the given pivot path, or nil.
func (h *Hierarchy) ByPivot(p schema.Path) *Relation { return h.byPivot[p] }

// EssentialRelations returns the relations of essential tuple
// classes in top-down order.
func (h *Hierarchy) EssentialRelations() []*Relation {
	out := make([]*Relation, 0, len(h.Relations))
	for _, r := range h.Relations {
		if r.Essential {
			out = append(out, r)
		}
	}
	return out
}

// TotalTuples returns the total number of tuples across all
// essential relations (the paper's measure of hierarchical
// representation size, contrasted with the multiplicative flat tuple
// count).
func (h *Hierarchy) TotalTuples() int {
	n := 0
	for _, r := range h.Relations {
		if r.Essential {
			n += r.NRows()
		}
	}
	return n
}

// Options configures Build.
type Options struct {
	// OrderedSets switches set pseudo-attributes from unordered
	// multiset semantics (the paper's choice) to ordered list
	// semantics, for the Section 4.5 order ablation.
	OrderedSets bool
	// DisableSetAttrs omits set pseudo-attributes entirely, which
	// restricts discovery to the FD notions of Arenas & Libkin and
	// Vincent et al. (no set-element FDs).
	DisableSetAttrs bool
	// MaxTuples caps the total number of tuples ingested across all
	// essential relations. When the cap is reached, Build/BuildStream
	// stop adding tuples and mark the hierarchy Truncated instead of
	// failing — graceful degradation for oversized inputs. Tuples are
	// admitted in document order, so a truncated hierarchy (tree or
	// stream alike) holds a document-order prefix of the tuples. 0
	// means unlimited.
	MaxTuples int
	// Deadline, when nonzero, is the wall-clock instant past which
	// tuple ingestion stops, marking the hierarchy Truncated. The
	// caller owns the overall budget and passes the absolute deadline
	// down; cancellation (an error, not truncation) comes from the
	// context instead.
	Deadline time.Time
	// Parse bounds the streaming XML parse of BuildStream. The zero
	// value applies datatree.DefaultLimits; set MaxDepth negative to
	// lift the default depth bound. Parse-limit violations are hard
	// errors (malformed or hostile input), not truncation.
	Parse datatree.ParseLimits
}

// parseLimits resolves the zero value to the datatree defaults.
func (o Options) parseLimits() datatree.ParseLimits {
	if o.Parse == (datatree.ParseLimits{}) {
		return datatree.DefaultLimits()
	}
	return o.Parse
}

// budgetCheckInterval is how many tuples are ingested between
// deadline/cancellation checks during hierarchy construction.
const budgetCheckInterval = 1024

// buildBudget enforces Options.MaxTuples, Options.Deadline, and
// context cancellation during hierarchy construction. Cancellation is
// an error; budget exhaustion truncates the hierarchy.
type buildBudget struct {
	ctx    context.Context
	opts   *Options
	h      *Hierarchy
	tuples int
}

// admit reports whether one more tuple may be ingested. It returns
// false once a budget is exhausted (marking the hierarchy truncated)
// and an error if the context was cancelled.
func (b *buildBudget) admit() (bool, error) {
	if b.h.Truncated {
		return false, nil
	}
	if b.tuples%budgetCheckInterval == 0 {
		if !b.opts.Deadline.IsZero() && time.Now().After(b.opts.Deadline) {
			b.h.truncate(buildDeadlineReason)
			return false, nil
		}
		if err := b.cancelled(); err != nil {
			return false, err
		}
		if b.h.Truncated { // cancelled() converted a fired ctx deadline
			return false, nil
		}
	}
	if b.opts.MaxTuples > 0 && b.tuples >= b.opts.MaxTuples {
		b.h.truncate(fmt.Sprintf("tuple budget of %d exhausted", b.opts.MaxTuples))
		return false, nil
	}
	b.tuples++
	return true, nil
}

const buildDeadlineReason = "deadline exceeded during hierarchy build"

// cancelled reports explicit cancellation as an error. Like the
// engine's governor, one carve-out keeps deadline composition
// deterministic: a context that died of its own *deadline* while the
// build's composed wall-clock budget is also spent is budget
// exhaustion, not cancellation — the hierarchy is marked truncated
// and construction finishes its structurally consistent snapshot
// instead of erroring. (The caller composes Options.Deadline as
// min(Limits.Deadline, ctx deadline), so a fired ctx deadline always
// implies a spent budget.)
func (b *buildBudget) cancelled() error {
	err := b.ctx.Err()
	if err == nil {
		return nil
	}
	if errors.Is(err, context.DeadlineExceeded) &&
		!b.opts.Deadline.IsZero() && !time.Now().Before(b.opts.Deadline) {
		b.h.truncate(buildDeadlineReason)
		return nil
	}
	return fmt.Errorf("relation: build cancelled: %w", err)
}

// Build constructs the hierarchical representation of the tree under
// the schema. The tree must conform to the schema (see
// datatree.Conform); Build reports an error on the first
// non-conforming structure it hits.
func Build(t *datatree.Tree, s *schema.Schema, opts Options) (*Hierarchy, error) {
	return BuildContext(context.Background(), t, s, opts)
}

// BuildContext is Build with cancellation. Context cancellation is
// checked periodically and returns an error; exhausting
// Options.MaxTuples or Options.Deadline instead stops ingestion early
// and returns a structurally consistent hierarchy with Truncated set.
func BuildContext(ctx context.Context, t *datatree.Tree, s *schema.Schema, opts Options) (*Hierarchy, error) {
	if t == nil {
		return nil, ErrEmptyTree
	}
	return Ingest(ctx, source.Input{Tree: t}, s, opts)
}

// BuildStream constructs the hierarchical representation directly
// from an XML stream under the given schema, without materializing
// the document. The root element's label must match the schema.
func BuildStream(r io.Reader, s *schema.Schema, opts Options) (*Hierarchy, error) {
	return BuildStreamContext(context.Background(), r, s, opts)
}

// BuildStreamContext is BuildStream with cancellation and resource
// budgets. Parse-limit violations (Options.Parse) and cancellation
// are errors; exhausting Options.MaxTuples or Options.Deadline aborts
// the parse early and returns the hierarchy built so far with
// Truncated set.
func BuildStreamContext(ctx context.Context, r io.Reader, s *schema.Schema, opts Options) (*Hierarchy, error) {
	return Ingest(ctx, source.Input{
		Format: "xml",
		Stream: func(ctx context.Context, fn func(*datatree.Node) error) (string, error) {
			return datatree.StreamRootChildrenContext(ctx, r, opts.parseLimits(), fn)
		},
	}, s, opts)
}

// layoutHierarchy lays out the relation tree and each relation's
// value attributes from the schema alone (no data).
func layoutHierarchy(s *schema.Schema, opts Options) (*Hierarchy, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	h := &Hierarchy{Schema: s, OrderedSets: opts.OrderedSets, byPivot: make(map[schema.Path]*Relation)}
	rootPath := schema.PathOf(s.Root)
	h.Root = &Relation{Pivot: rootPath, Essential: false}
	h.byPivot[rootPath] = h.Root
	h.Relations = append(h.Relations, h.Root)

	var layout func(r *Relation, el schema.Element)
	layout = func(r *Relation, el schema.Element) {
		// Walk the payload of the pivot element, collecting
		// non-repeatable descendants as attributes and set elements
		// as child relations.
		addAttr := func(a Attr, steps []string) {
			r.Attrs = append(r.Attrs, a)
			r.attrSteps = append(r.attrSteps, steps)
		}
		if el.Payload.Kind.IsSimple() {
			if el.Repeatable {
				// e.g. author: SetOf str — the tuple's own value.
				addAttr(Attr{Rel: ".", Path: el.Path, Kind: Leaf}, nil)
			}
			return
		}
		var walk func(p schema.Path, steps []string, tp *schema.Type)
		walk = func(p schema.Path, steps []string, tp *schema.Type) {
			for _, f := range tp.Fields {
				cp := p.Child(f.Label)
				rel := schema.MustRelativize(r.Pivot, cp)
				// The full slice expression makes every append copy, so
				// sibling step lists never share a backing array.
				fsteps := append(steps[:len(steps):len(steps)], f.Label)
				if f.Type.Kind == schema.Set {
					child := &Relation{Pivot: cp, Essential: true, Parent: r, steps: fsteps}
					r.Children = append(r.Children, child)
					h.byPivot[cp] = child
					h.Relations = append(h.Relations, child)
					if !opts.DisableSetAttrs {
						addAttr(Attr{Rel: rel, Path: cp, Kind: SetValue}, fsteps)
					}
					payload := f.Type.Elem
					childEl := schema.Element{Path: cp, Label: f.Label, Type: f.Type, Repeatable: true, Payload: payload}
					layout(child, childEl)
					continue
				}
				if f.Type.Kind.IsSimple() {
					addAttr(Attr{Rel: rel, Path: cp, Kind: Leaf}, fsteps)
					continue
				}
				// Non-repeatable complex element: both an attribute
				// (compared by subtree value, consistent with
				// path-value equality) and a container to descend
				// into, per Figures 5–7 where both contact and
				// contact/name are columns of R_store.
				addAttr(Attr{Rel: rel, Path: cp, Kind: Complex}, fsteps)
				walk(cp, fsteps, f.Type)
			}
		}
		walk(el.Path, nil, el.Payload)
	}
	rootEl, err := s.Resolve(rootPath)
	if err != nil {
		return nil, err
	}
	layout(h.Root, rootEl)
	for i, r := range h.Relations {
		r.Index = i
	}
	return h, nil
}

// nullCode returns the unique negative code for a missing value in
// row ti.
func nullCode(ti int) int64 { return -int64(ti) - 1 }

// IsNull reports whether a column code represents a missing value.
func IsNull(code int64) bool { return code < 0 }

// String renders the relation in a compact tabular debug form.
func (r *Relation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "R(%s)%s  @key parent", r.Pivot, map[bool]string{true: "", false: " [root]"}[r.Essential])
	for _, a := range r.Attrs {
		b.WriteByte(' ')
		b.WriteString(a.Name())
	}
	b.WriteByte('\n')
	for t := 0; t < r.NRows(); t++ {
		fmt.Fprintf(&b, "  t%d: %d %d", t, r.Keys[t], r.ParentIdx[t])
		for ai := range r.Attrs {
			b.WriteByte(' ')
			b.WriteString(strconv.FormatInt(r.Cols[ai][t], 10))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

package discoverxfd

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"discoverxfd/internal/core"
	"discoverxfd/internal/datatree"
	"discoverxfd/internal/relation"
	"discoverxfd/internal/source"
	"discoverxfd/internal/source/jsondoc"
	"discoverxfd/internal/trace"
)

// Engine is the one entry point into the DiscoverXFD pipeline, one
// method per stage: LoadDocument, LoadJSON and LoadDocumentFile parse
// a document into the data-tree model, BuildHierarchy and
// BuildHierarchyStream build its hierarchical representation,
// DiscoverHierarchy runs discovery over a hierarchy, and Discover and
// DiscoverStream build and discover in one call. Evaluate and
// CheckConstraints check given constraints, and ApplyUpdate edits a
// hierarchy in place.
//
// Construct an Engine once from an Options value and call its methods
// from as many goroutines as you like. Each call runs an isolated
// staged pipeline (plan → traverse → minimize → verify → assemble;
// see internal/core), so concurrent calls never observe each other's
// state. An Engine holds only its options and its counters (Metrics).
// What repeated DiscoverHierarchy calls over the same *Hierarchy
// value reuse is the hierarchy's warm entry: the immutable partitions
// and per-relation results of the last such run, kept on the
// hierarchy itself, so that later runs skip rebuilding them
// (benchmark E14 measures the effect). Every engine whose options
// equal the ones that built the entry reuses it, Trace and
// RelationHook aside; an engine with other options runs cold and
// leaves its own entry in its place. ApplyUpdate through any engine
// patches the entry in place. The entry lives exactly as long as the
// caller holds the hierarchy. Discover and DiscoverStream build their
// hierarchy inside the call and run cold, so they leave nothing
// behind.
//
// Every method that loads, builds or discovers validates
// Options.Limits before any work (a bad value fails with
// ErrBadLimits), and wall-clock budgets are per call:
// Options.Limits.Deadline is relative, and each such method converts
// it to an absolute deadline, composed with the context's own, when
// the call starts.
type Engine struct {
	opts Options
	core *core.Engine
}

// NewEngine returns an Engine running every call with the given
// options; nil means defaults. The options are copied — later
// mutation of *opts does not affect the engine.
func NewEngine(opts *Options) *Engine {
	o := Options{}
	if opts != nil {
		o = *opts
	}
	return &Engine{opts: o, core: core.NewEngine(o.coreOptions())}
}

// Metrics returns a snapshot of the engine's cumulative counters:
// runs started/finished/truncated/failed, warm-entry seedings, direct
// evaluations, the partition-cache high-water mark, and the summed
// Stats of every finished run. Safe to call concurrently with running
// discoveries.
func (e *Engine) Metrics() Metrics { return e.core.Metrics() }

// begin starts a stage call: it validates the engine's limits and
// composes the call's absolute wall-clock deadline from
// Limits.Deadline and the context's deadline.
func (e *Engine) begin(ctx context.Context) (time.Time, error) {
	if err := e.opts.Limits.Validate(); err != nil {
		return time.Time{}, err
	}
	return e.opts.Limits.deadlineFor(ctx, time.Now()), nil
}

// Discover runs DiscoverXFD on the document: it finds all minimal
// interesting XML FDs and Keys and derives the redundancies the FDs
// indicate. If s is nil the schema is inferred from the data.
// Cancelling ctx aborts with an error; exhausting a Limits budget
// (deadline, tuple cap, lattice cap) instead returns the partial
// Result found so far with Stats.Truncated and Stats.TruncatedReason
// set. The Limits.Deadline budget covers hierarchy construction and
// discovery together.
func (e *Engine) Discover(ctx context.Context, doc *Document, s *Schema) (*Result, error) {
	deadline, err := e.begin(ctx)
	if err != nil {
		return nil, err
	}
	h, err := e.build(ctx, doc, s, deadline)
	if err != nil {
		return nil, err
	}
	return e.core.Discover(ctx, h, deadline, false)
}

// DiscoverHierarchy runs DiscoverXFD on a prebuilt hierarchy, under
// the same cancellation and truncation contract as Discover.
// Repeated calls with the same *Hierarchy, through this engine or any
// with equal options, reuse the hierarchy's warm entry — this is the
// engine-reuse fast path.
func (e *Engine) DiscoverHierarchy(ctx context.Context, h *Hierarchy) (*Result, error) {
	deadline, err := e.begin(ctx)
	if err != nil {
		return nil, err
	}
	return e.core.Discover(ctx, h, deadline, true)
}

// DiscoverStream runs DiscoverXFD over an XML stream without
// materializing the document (see BuildHierarchyStream; the schema is
// required). The Limits.Deadline budget covers streaming ingestion
// and discovery together.
func (e *Engine) DiscoverStream(ctx context.Context, r io.Reader, s *Schema) (*Result, error) {
	deadline, err := e.begin(ctx)
	if err != nil {
		return nil, err
	}
	h, err := e.buildStream(ctx, r, s, deadline)
	if err != nil {
		return nil, err
	}
	return e.core.Discover(ctx, h, deadline, false)
}

// LoadDocument parses an XML document from r under the engine's parse
// limits (Limits.MaxDepth, Limits.MaxNodes), checking ctx
// periodically. A document exceeding a parse limit fails fast with a
// "datatree:" error — a deep-nesting or entity-bloat bomb never
// exhausts memory.
func (e *Engine) LoadDocument(ctx context.Context, r io.Reader) (*Document, error) {
	if _, err := e.begin(ctx); err != nil {
		return nil, err
	}
	return datatree.ParseXMLContext(ctx, r, e.opts.Limits.parseLimits())
}

// LoadJSON parses a JSON document from r into the same data-tree
// model as LoadDocument, under the engine's parse limits, so
// everything downstream — schema inference, hierarchy construction,
// discovery — is format-agnostic. Arrays become set elements
// (repeated children, declared repeatable even with one member),
// nested objects become singleton records, scalars become leaf values
// with their literal spelling preserved, and explicit null stays
// distinguishable from a missing member (a present, valueless node).
// See internal/source/jsondoc for the full mapping.
func (e *Engine) LoadJSON(ctx context.Context, r io.Reader) (*Document, error) {
	if _, err := e.begin(ctx); err != nil {
		return nil, err
	}
	return jsondoc.ParseContext(ctx, r, e.opts.Limits.parseLimits())
}

// LoadDocumentFile parses a document from a file under the engine's
// parse limits. format "xml" or "json" forces the format, while "" or
// "auto" detects it from the file extension (.xml, .json) or, when
// the extension is not registered, from the first bytes of the
// content. An unregistered format or unrecognized input fails with
// ErrUnknownFormat.
func (e *Engine) LoadDocumentFile(ctx context.Context, path, format string) (*Document, error) {
	if _, err := e.begin(ctx); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	var src source.Source
	var r io.Reader = f
	if format == "" || format == "auto" {
		src, r, err = source.Detect(path, f)
	} else {
		src, err = source.ByFormat(format)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	doc, err := src.Load(ctx, r, e.opts.Limits.parseLimits())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// BuildHierarchy constructs the hierarchical representation of the
// document (one relation per essential tuple class), for
// DiscoverHierarchy, Evaluate, CheckConstraints, ApplyUpdate and
// inspecting tuple classes. If s is nil the schema is inferred from
// the data; otherwise the document must conform to it. Cancelling ctx
// aborts with an error, while exhausting Limits.MaxTuples or
// Limits.Deadline stops ingestion early and returns a consistent
// hierarchy marked truncated.
func (e *Engine) BuildHierarchy(ctx context.Context, doc *Document, s *Schema) (*Hierarchy, error) {
	deadline, err := e.begin(ctx)
	if err != nil {
		return nil, err
	}
	return e.build(ctx, doc, s, deadline)
}

func (e *Engine) build(ctx context.Context, doc *Document, s *Schema, deadline time.Time) (*Hierarchy, error) {
	if s == nil {
		inferred, err := datatree.InferSchema(doc)
		if err != nil {
			return nil, err
		}
		s = inferred
	} else if err := datatree.Conform(doc, s); err != nil {
		// Surface a mismatched root as the typed sentinel so callers
		// (and the CLI exit-code classification) can errors.As it;
		// conformance reports it first, with an untyped error.
		if doc != nil && doc.Root != nil && doc.Root.Label != s.Root {
			return nil, &relation.RootMismatchError{What: "tree", Root: doc.Root.Label, SchemaRoot: s.Root}
		}
		return nil, err
	}
	return relation.BuildContext(ctx, doc, s, e.opts.relationOptions(deadline))
}

// BuildHierarchyStream constructs the hierarchical representation
// directly from an XML stream without materializing the document:
// memory stays proportional to the representation plus the largest
// single root-child subtree, and parse limits apply as the stream is
// read. The schema is required (inference needs the whole document).
// Streamed hierarchies drop node-level detail, so discovery, Evaluate
// and CheckConstraints work identically, but ApplyUpdate,
// ApplyRefinement and DetectAnomalies need a BuildHierarchy
// hierarchy. Budgets behave as in BuildHierarchy.
func (e *Engine) BuildHierarchyStream(ctx context.Context, r io.Reader, s *Schema) (*Hierarchy, error) {
	deadline, err := e.begin(ctx)
	if err != nil {
		return nil, err
	}
	return e.buildStream(ctx, r, s, deadline)
}

func (e *Engine) buildStream(ctx context.Context, r io.Reader, s *Schema, deadline time.Time) (*Hierarchy, error) {
	if s == nil {
		return nil, fmt.Errorf("discoverxfd: streaming requires an explicit schema")
	}
	return relation.BuildStreamContext(ctx, r, s, e.opts.relationOptions(deadline))
}

// Evaluate checks a single XML FD ⟨class, lhs, rhs⟩ directly against
// a hierarchy, independent of discovery: whether it holds (strong
// satisfaction), whether its LHS is a key, and how many redundant
// values it witnesses. Cancellation is checked periodically over the
// class's tuples.
func (e *Engine) Evaluate(ctx context.Context, h *Hierarchy, class Path, lhs []RelPath, rhs RelPath) (Evaluation, error) {
	return e.core.Evaluate(ctx, h, class, lhs, rhs)
}

// CheckConstraints evaluates each parsed constraint against the
// hierarchy, independent of discovery — the regression-testing
// workflow: pin the constraints your data must satisfy and fail CI
// when an update breaks one. Cancellation is checked per constraint.
func (e *Engine) CheckConstraints(ctx context.Context, h *Hierarchy, cs []Constraint) ([]CheckResult, error) {
	out := make([]CheckResult, 0, len(cs))
	for _, c := range cs {
		rhs := c.FD.RHS
		if c.IsKey {
			rel := h.ByPivot(c.FD.Class)
			if rel == nil {
				return nil, fmt.Errorf("discoverxfd: unknown tuple class %s in %s", c.FD.Class, c)
			}
			if rel.NAttrs() == 0 {
				return nil, fmt.Errorf("discoverxfd: class %s has no attributes to key", c.FD.Class)
			}
			rhs = rel.Attrs[0].Rel
		}
		ev, err := e.Evaluate(ctx, h, c.FD.Class, c.FD.LHS, rhs)
		if err != nil {
			return nil, fmt.Errorf("discoverxfd: checking %s: %w", c, err)
		}
		r := CheckResult{Constraint: c}
		if c.IsKey {
			r.Holds = ev.LHSIsKey
			r.Violations = ev.Witnesses + ev.Violations
		} else {
			r.Holds = ev.Holds
			r.Violations = ev.Violations
			r.Witnesses = ev.Witnesses
			if !ev.Holds {
				r.G3Error = ev.Error
			}
		}
		if e.opts.Trace != nil {
			action := "violated"
			if r.Holds {
				action = "holds"
			}
			trace.Emit(e.opts.Trace, &trace.Event{Kind: trace.KindCheck,
				Relation: string(c.FD.Class), Action: action, Detail: c.String(), Pairs: r.Violations})
		}
		out = append(out, r)
	}
	return out, nil
}

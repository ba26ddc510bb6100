package discoverxfd

import (
	"context"
	"errors"
	"fmt"
	"time"

	"discoverxfd/internal/datatree"
)

// ErrBadLimits is returned when a Limits value is nonsensical — a
// negative budget or bound. It is a usage error, not a runtime one:
// the CLIs classify it as exit status 2 and xfdd as HTTP 400.
// Classify with errors.Is through any wrapping the call path adds.
var ErrBadLimits = errors.New("discoverxfd: invalid limits")

// Limits bounds the resources a single discovery call may consume.
// The zero value applies only the parser's default nesting bound;
// every other budget is off.
//
// Two enforcement regimes apply, by layer:
//
//   - Parse limits (MaxDepth, MaxNodes) are hard errors: a document
//     that exceeds them is hostile or malformed, and a partial data
//     tree would be useless, so parsing fails fast with a "datatree:"
//     error.
//   - Discovery budgets (MaxTuples, MaxLatticeLevel, Deadline)
//     degrade gracefully: when one runs out, the pipeline keeps the
//     work already done and returns a partial Result with
//     Stats.Truncated and Stats.TruncatedReason set — never an error
//     and never a hang. Every FD/Key in a truncated Result holds on
//     the data that was examined, but constraints may be missing,
//     and, if tuple ingestion itself was truncated, a reported
//     constraint may not hold on the full document.
//
// Cancellation is separate from both: cancelling the context passed
// to an Engine method aborts the call with an error. A context
// *deadline*, however, is a wall-clock budget like Deadline: the run
// honors the earlier of the two and truncates gracefully when it
// arrives (see deadlineFor), so servers can express per-request
// budgets through the context without forfeiting partial results.
//
// Every field must be non-negative; a negative budget is meaningless
// and fails fast with ErrBadLimits (see Validate) rather than being
// silently reinterpreted.
type Limits struct {
	// MaxDepth bounds XML element nesting while parsing. 0 applies
	// the parser default (datatree.DefaultMaxDepth, 10000).
	MaxDepth int
	// MaxNodes bounds the number of data nodes materialized while
	// parsing (elements, attribute leaves, and text leaves). 0 means
	// unlimited.
	MaxNodes int
	// MaxTuples caps the total tuples ingested into the hierarchical
	// representation across all tuple classes; beyond it ingestion
	// stops and the result is marked truncated. Tuples are admitted in
	// document order, so the survivors are the document's first
	// MaxTuples tuples, the same for in-memory and streamed builds.
	// 0 means unlimited.
	MaxTuples int
	// MaxLatticeLevel caps the attribute-set size explored in any
	// relation's lattice (the level-wise search is worst-case
	// exponential in attribute count). Hitting the cap marks the
	// result truncated. 0 means unbounded.
	MaxLatticeLevel int
	// Deadline is a wall-clock budget for the whole call, measured
	// from its start. On expiry the traversal stops at the next check
	// and the partial Result is returned with Stats.Truncated set.
	// 0 means no budget.
	Deadline time.Duration
	// MaxPartitionBytes caps the estimated memory the run-wide
	// partition cache retains across tuple classes. Unlike the budgets
	// above it never truncates results: a relation whose traversal has
	// finished is trimmed back to its cheap single-column partitions,
	// and anything needed again is recomputed from those — over-budget
	// runs get slower, not lossier. The class currently being traversed
	// is never trimmed (MaxLatticeLevel is the lever for bounding a
	// single class's working set). 0 means unlimited.
	MaxPartitionBytes int64
}

// Validate checks every field for sense: all budgets and bounds must
// be non-negative (0 always means "default" or "off", never a
// negative sentinel). The first offending field is reported in an
// error wrapping ErrBadLimits. Every Engine entry point validates its
// limits up front, so a bad value fails fast instead of silently
// passing through as "unlimited".
func (l Limits) Validate() error {
	switch {
	case l.MaxDepth < 0:
		return fmt.Errorf("%w: MaxDepth %d is negative (0 means the parser default)", ErrBadLimits, l.MaxDepth)
	case l.MaxNodes < 0:
		return fmt.Errorf("%w: MaxNodes %d is negative (0 means unlimited)", ErrBadLimits, l.MaxNodes)
	case l.MaxTuples < 0:
		return fmt.Errorf("%w: MaxTuples %d is negative (0 means unlimited)", ErrBadLimits, l.MaxTuples)
	case l.MaxLatticeLevel < 0:
		return fmt.Errorf("%w: MaxLatticeLevel %d is negative (0 means unbounded)", ErrBadLimits, l.MaxLatticeLevel)
	case l.Deadline < 0:
		return fmt.Errorf("%w: Deadline %v is in the past (0 means no budget)", ErrBadLimits, l.Deadline)
	case l.MaxPartitionBytes < 0:
		return fmt.Errorf("%w: MaxPartitionBytes %d is negative (0 means unlimited)", ErrBadLimits, l.MaxPartitionBytes)
	}
	return nil
}

// parseLimits maps the parse-layer fields onto the datatree limits,
// resolving 0 to the parser default depth.
func (l Limits) parseLimits() datatree.ParseLimits {
	pl := datatree.ParseLimits{MaxDepth: l.MaxDepth, MaxNodes: l.MaxNodes}
	if pl.MaxDepth == 0 {
		pl.MaxDepth = datatree.DefaultMaxDepth
	}
	return pl
}

// deadlineFor composes the call's wall-clock budget as the absolute
// instant the lower layers check against: the earlier of the
// Limits.Deadline budget (relative to now) and the context's own
// deadline, either of which may be absent (zero means no budget). The
// composed instant feeds the governor's graceful-truncation path, so
// a run bounded by a context deadline returns the partial Result
// found so far instead of dying with a cancellation error when the
// clock runs out — explicit cancellation (context.CancelFunc) still
// aborts with an error.
func (l Limits) deadlineFor(ctx context.Context, now time.Time) time.Time {
	var d time.Time
	if l.Deadline > 0 {
		d = now.Add(l.Deadline)
	}
	if ctx == nil {
		return d
	}
	if cd, ok := ctx.Deadline(); ok && (d.IsZero() || cd.Before(d)) {
		d = cd
	}
	return d
}

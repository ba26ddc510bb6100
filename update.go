package discoverxfd

import (
	"encoding/json"
	"fmt"
	"io"

	"discoverxfd/internal/relation"
)

// Incremental updates. A hierarchy Engine.BuildHierarchy built from
// an in-memory document stays updatable: ApplyUpdate mutates it in
// place — tuple value changes, inserts, deletes — and the engine
// keeps its warm partitions, rebuilding only those of the dirty
// columns, so the next DiscoverHierarchy call over the same
// *Hierarchy runs incrementally. Streamed hierarchies are not
// updatable (ErrNotUpdatable); rebuild those from the source.

type (
	// Update is one document mutation: a tuple value change, insert,
	// or delete, addressed by tuple class and pivot node key.
	Update = relation.Update
	// UpdateOp selects what an Update does (OpSet, OpInsert,
	// OpDelete).
	UpdateOp = relation.UpdateOp
	// Changeset reports what an ApplyUpdate batch changed: the
	// affected pivot keys (newly assigned ones for inserts) and, per
	// relation, the dirty columns and the number of touched rows.
	Changeset = relation.Changeset
	// RelChange is one relation's entry in a Changeset.
	RelChange = relation.RelChange
)

// Update operations.
const (
	OpSet    = relation.OpSet
	OpInsert = relation.OpInsert
	OpDelete = relation.OpDelete
)

// ErrNotUpdatable is returned by ApplyUpdate for hierarchies that did
// not retain encoding state (streamed builds).
var ErrNotUpdatable = relation.ErrNotUpdatable

// ApplyUpdate applies a batch of updates to the hierarchy and patches
// the engine's warm partition layer: untouched partitions are kept,
// dirty single-column partitions rebuilt from the column's codes, and
// only stale multi-column sets dropped. Updates serialize against running discoveries on the
// same hierarchy. The returned Changeset's Keys hold, per op, the
// affected pivot key — for inserts, the new tuple's key, which later
// batches use to address it.
//
// On error the batch stops at the failing op: earlier ops remain
// applied to the document, and the engine drops the hierarchy's warm
// partitions so no stale state can be served. Callers wanting
// all-or-nothing semantics should validate scripts first (or rebuild
// the hierarchy on error).
func (e *Engine) ApplyUpdate(h *Hierarchy, ops []Update) (*Changeset, error) {
	return e.core.ApplyUpdate(h, ops)
}

// updateJSON is the wire form of one update in a JSON update script.
type updateJSON struct {
	Op     string            `json:"op"`
	Class  string            `json:"class"`
	Key    int               `json:"key,omitempty"`
	Attr   string            `json:"attr,omitempty"`
	Value  *string           `json:"value,omitempty"`
	Parent int               `json:"parent,omitempty"`
	Values map[string]string `json:"values,omitempty"`
}

// ParseUpdates decodes a JSON update script: an array of objects
//
//	{"op": "set",    "class": "/warehouse/state/store/book", "key": 17,
//	 "attr": "./price", "value": "35"}
//	{"op": "insert", "class": "/warehouse/state/store/book", "parent": 9,
//	 "values": {"./ISBN": "555", "./title": "New"}}
//	{"op": "delete", "class": "/warehouse/state/store/book", "key": 17}
//
// into a batch for ApplyUpdate. Classes are pivot paths, keys are the
// @key values discovery reports in witnesses, and attributes are
// pivot-relative paths. Parent may be omitted for top-level classes
// (their parent tuple is the document root).
func ParseUpdates(r io.Reader) ([]Update, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var raw []updateJSON
	if err := dec.Decode(&raw); err != nil {
		return nil, fmt.Errorf("discoverxfd: update script: %w", err)
	}
	ops := make([]Update, 0, len(raw))
	for i, u := range raw {
		if u.Class == "" {
			return nil, fmt.Errorf("discoverxfd: update %d: missing class", i)
		}
		op := Update{Class: Path(u.Class)}
		switch u.Op {
		case "set":
			if u.Key == 0 {
				return nil, fmt.Errorf("discoverxfd: update %d: set requires a key", i)
			}
			if u.Attr == "" || u.Value == nil {
				return nil, fmt.Errorf("discoverxfd: update %d: set requires attr and value", i)
			}
			op.Op, op.Key, op.Attr, op.Value = OpSet, u.Key, RelPath(u.Attr), *u.Value
		case "insert":
			op.Op, op.Parent = OpInsert, u.Parent
			op.Values = make(map[RelPath]string, len(u.Values))
			for k, v := range u.Values {
				op.Values[RelPath(k)] = v
			}
		case "delete":
			if u.Key == 0 {
				return nil, fmt.Errorf("discoverxfd: update %d: delete requires a key", i)
			}
			op.Op, op.Key = OpDelete, u.Key
		default:
			return nil, fmt.Errorf("discoverxfd: update %d: unknown op %q", i, u.Op)
		}
		ops = append(ops, op)
	}
	return ops, nil
}

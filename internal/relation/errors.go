package relation

import (
	"errors"
	"fmt"
)

// ErrEmptyTree is returned by Build/BuildContext when the tree is nil
// or has no root.
var ErrEmptyTree = errors.New("relation: empty tree")

// RootMismatchError reports input whose root label does not match the
// schema root, carrying both labels so callers can classify the
// failure with errors.As instead of parsing the message.
type RootMismatchError struct {
	// What names the input kind: "tree" for the in-memory build,
	// "document" for the streaming build.
	What string
	// Root is the input's actual root label.
	Root string
	// SchemaRoot is the root label the schema requires.
	SchemaRoot string
}

func (e *RootMismatchError) Error() string {
	return fmt.Sprintf("relation: %s root %q does not match schema root %q", e.What, e.Root, e.SchemaRoot)
}

package discoverxfd_test

import (
	"context"
	"strings"
	"testing"

	"discoverxfd"
	"discoverxfd/internal/xmlgen"
)

// TestAnomalyRejectsAncestorRHS holds anomaly detection and update
// advice to Evaluate's rule that an FD's RHS stays within the pivot's
// subtree. An RHS that resolves to an ancestor's attribute must be an
// error, not a column of the wrong relation read by the class's row
// indices: such a read once reported no violation, or violations from
// another column, or indexed past the class's columns and panicked.
func TestAnomalyRejectsAncestorRHS(t *testing.T) {
	ds := xmlgen.Warehouse(xmlgen.DefaultWarehouse())
	h, err := discoverxfd.NewEngine(nil).BuildHierarchy(context.Background(), ds.Tree, ds.Schema)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"{./ISBN} -> ../contact/name w.r.t. C(/warehouse/state/store/book)",
		"{./ISBN} -> ../book w.r.t. C(/warehouse/state/store/book)",
		"{.} -> ../price w.r.t. C(/warehouse/state/store/book/author)",
	} {
		cs, err := discoverxfd.ParseConstraints(line)
		if err != nil {
			t.Fatal(err)
		}
		const want = "must stay within the pivot's subtree"
		if _, err := discoverxfd.DetectAnomalies(h, cs); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("DetectAnomalies(%s) = %v, want an error saying the RHS %s", line, err, want)
		}
		fd := cs[0].FD
		key := ds.Tree.NodesAt(fd.Class)[0].Key
		if _, err := discoverxfd.AdviseUpdate(h, fd, key); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("AdviseUpdate(%s) = %v, want an error saying the RHS %s", line, err, want)
		}
	}
}

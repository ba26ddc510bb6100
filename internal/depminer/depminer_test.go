package depminer

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"discoverxfd/internal/core"
	"discoverxfd/internal/datatree"
	"discoverxfd/internal/relation"
	"discoverxfd/internal/schema"
)

// buildRelation constructs a single-relation hierarchy from a small
// random column matrix with nulls.
func buildRelation(t *testing.T, seed int64, rows, attrs, domain int) *relation.Relation {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	text := "db: Rcd\n  row: SetOf Rcd\n"
	for a := 0; a < attrs; a++ {
		text += fmt.Sprintf("    a%d: str\n", a)
	}
	s := schema.MustParse(text)
	root := &datatree.Node{Label: "db"}
	for i := 0; i < rows; i++ {
		row := root.AddChild("row")
		for a := 0; a < attrs; a++ {
			if r.Intn(10) == 0 {
				continue // missing value
			}
			row.AddLeaf(fmt.Sprintf("a%d", a), fmt.Sprintf("v%d", r.Intn(domain)))
		}
	}
	tree := datatree.NewTree(root)
	h, err := relation.Build(tree, s, relation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return h.ByPivot("/db/row")
}

func fdSet(fds []core.FD) map[string]bool {
	out := make(map[string]bool, len(fds))
	for _, f := range fds {
		out[f.String()] = true
	}
	return out
}

func keySet(keys []core.Key) map[string]bool {
	out := make(map[string]bool, len(keys))
	for _, k := range keys {
		out[k.String()] = true
	}
	return out
}

// dropSuperkey removes FDs whose LHS contains one of the keys, the
// policy the lattice applies via key pruning.
func dropSuperkey(fds []core.FD, keys []core.Key) []core.FD {
	var out []core.FD
	for _, f := range fds {
		super := false
		for _, k := range keys {
			if subset(k.LHS, f.LHS) {
				super = true
				break
			}
		}
		if !super {
			out = append(out, f)
		}
	}
	return out
}

func subset(a, b []schema.RelPath) bool {
	set := map[schema.RelPath]bool{}
	for _, p := range b {
		set[p] = true
	}
	for _, p := range a {
		if !set[p] {
			return false
		}
	}
	return true
}

// TestDepMinerMatchesLattice is the dual-algorithm equivalence check:
// the agree-set/transversal cover must coincide with the lattice
// cover on many random relations with nulls.
func TestDepMinerMatchesLattice(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rel := buildRelation(t, seed, 4+int(seed)%20, 3+int(seed)%3, 2+int(seed)%3)
			latFDs, latKeys, _, err := core.DiscoverRelation(rel, core.Options{KeepConstantFDs: true})
			if err != nil {
				t.Fatal(err)
			}
			dm, err := Discover(rel)
			if err != nil {
				t.Fatal(err)
			}
			dmFDs := dropSuperkey(dm.FDs, dm.Keys)

			if got, want := keySet(dm.Keys), keySet(latKeys); !sameSet(got, want) {
				t.Errorf("key covers differ\ndepminer: %v\nlattice:  %v", keysOf(got), keysOf(want))
			}
			if got, want := fdSet(dmFDs), fdSet(latFDs); !sameSet(got, want) {
				t.Errorf("FD covers differ\ndepminer: %v\nlattice:  %v", keysOf(got), keysOf(want))
			}
		})
	}
}

// buildFlat builds a flat table like buildRelation, with missingPct
// percent of its leaves missing and, on every third attribute, a value
// determined by the attribute before it where that one is present: the
// FD a_{i-1} -> a_i holds wherever a_i is present, so the lattice has
// satisfied FDs for Figure 8's rule 2 to prune with.
func buildFlat(t testing.TB, seed int64, rows, attrs, domain, missingPct int) *relation.Hierarchy {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	text := "db: Rcd\n  row: SetOf Rcd\n"
	for a := range attrs {
		text += fmt.Sprintf("    a%d: str\n", a)
	}
	root := &datatree.Node{Label: "db"}
	vals := make([]int, attrs)
	for range rows {
		row := root.AddChild("row")
		for a := range attrs {
			vals[a] = r.Intn(domain)
			if a%3 == 2 && vals[a-1] >= 0 {
				vals[a] = (vals[a-1]*7 + 3) % domain
			}
			if r.Intn(100) < missingPct {
				vals[a] = -1
				continue
			}
			row.AddLeaf(fmt.Sprintf("a%d", a), fmt.Sprintf("v%d", vals[a]))
		}
	}
	h, err := relation.Build(datatree.NewTree(root), schema.MustParse(text), relation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// checkDiscoverMatchesDepMiner compares the XFD entry point's FDs and
// keys on a flat table with DepMiner's agree-set cover of its one
// relation. The table's parent is the single root tuple and no target
// can reach it, so the lattice prunes with Figure 8's rules 1 and 2
// there (see latticeRun.run), and a rule that over-prunes loses a
// minimal FD that DepMiner still finds.
func checkDiscoverMatchesDepMiner(t testing.TB, seed int64, rows, attrs, domain, missingPct int) {
	t.Helper()
	h := buildFlat(t, seed, rows, attrs, domain, missingPct)
	res, err := core.NewEngine(core.Options{KeepConstantFDs: true}).Discover(context.Background(), h, time.Time{}, false)
	if err != nil {
		t.Fatal(err)
	}
	dm, err := Discover(h.ByPivot("/db/row"))
	if err != nil {
		t.Fatal(err)
	}
	shape := fmt.Sprintf("seed %d, %d rows, %d attrs, domain %d, %d%% missing", seed, rows, attrs, domain, missingPct)
	if got, want := keySet(dm.Keys), keySet(res.Keys); !sameSet(got, want) {
		t.Errorf("%s: key covers differ\ndepminer: %v\nlattice:  %v", shape, keysOf(got), keysOf(want))
	}
	if got, want := fdSet(dropSuperkey(dm.FDs, dm.Keys)), fdSet(res.FDs); !sameSet(got, want) {
		t.Errorf("%s: FD covers differ\ndepminer: %v\nlattice:  %v", shape, keysOf(got), keysOf(want))
	}
}

// TestDiscoverMatchesDepMiner is TestDepMinerMatchesLattice for the
// XFD entry point, Engine.Discover, over random flat tables of up to
// 60 rows, 3–8 attributes, domains 2–4 and 0–15% missing leaves.
func TestDiscoverMatchesDepMiner(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		checkDiscoverMatchesDepMiner(t, seed, 4+r.Intn(57), 3+r.Intn(6), 2+r.Intn(3), r.Intn(16))
	}
}

// FuzzLatticeMatchesDepMiner explores the shapes of
// TestDiscoverMatchesDepMiner beyond its fixed seeds.
func FuzzLatticeMatchesDepMiner(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(5), uint8(3), uint8(10))
	f.Add(int64(7), uint8(60), uint8(8), uint8(2), uint8(0))
	f.Add(int64(42), uint8(4), uint8(3), uint8(4), uint8(15))
	f.Fuzz(func(t *testing.T, seed int64, rows, attrs, domain, missing uint8) {
		checkDiscoverMatchesDepMiner(t, seed, 4+int(rows)%57, 3+int(attrs)%6, 2+int(domain)%3, int(missing)%16)
	})
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func keysOf(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestDepMinerSmallExample pins a hand-checkable case.
func TestDepMinerSmallExample(t *testing.T) {
	// a b c
	// 1 x p
	// 1 x q
	// 2 y p
	root := &datatree.Node{Label: "db"}
	for _, vals := range [][3]string{{"1", "x", "p"}, {"1", "x", "q"}, {"2", "y", "p"}} {
		row := root.AddChild("row")
		row.AddLeaf("a0", vals[0])
		row.AddLeaf("a1", vals[1])
		row.AddLeaf("a2", vals[2])
	}
	tree := datatree.NewTree(root)
	s := schema.MustParse("db: Rcd\n  row: SetOf Rcd\n    a0: str\n    a1: str\n    a2: str")
	h, err := relation.Build(tree, s, relation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dm, err := Discover(h.ByPivot("/db/row"))
	if err != nil {
		t.Fatal(err)
	}
	fds := fdSet(dm.FDs)
	// a0 <-> a1 determine each other; {a0,a2} and {a1,a2} are keys.
	for _, want := range []string{
		"{./a0} -> ./a1 w.r.t. C(/db/row)",
		"{./a1} -> ./a0 w.r.t. C(/db/row)",
	} {
		if !fds[want] {
			t.Errorf("missing %s in %v", want, keysOf(fds))
		}
	}
	ks := keySet(dm.Keys)
	for _, want := range []string{
		"{./a0, ./a2} KEY of C(/db/row)",
		"{./a1, ./a2} KEY of C(/db/row)",
	} {
		if !ks[want] {
			t.Errorf("missing %s in %v", want, keysOf(ks))
		}
	}
	if len(dm.Keys) != 2 {
		t.Errorf("keys: %v", keysOf(ks))
	}
}

func TestDepMinerWidthGuard(t *testing.T) {
	rel := &relation.Relation{Pivot: "/x"}
	for i := 0; i < 70; i++ {
		rel.Attrs = append(rel.Attrs, relation.Attr{Rel: schema.RelPath(fmt.Sprintf("./a%d", i))})
		rel.Cols = append(rel.Cols, nil)
	}
	if _, err := Discover(rel); err == nil || !strings.Contains(err.Error(), "at most 64") {
		t.Fatalf("width guard missing: %v", err)
	}
}

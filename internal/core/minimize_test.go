package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"discoverxfd/internal/relation"
	"discoverxfd/internal/schema"
	"discoverxfd/internal/xmlgen"
)

// relsSubset reports whether a ⊆ b as path sets (both sorted or not).
// It and the pairwise minimizers below are the oracle of the interned
// minimizers in xfd.go.
func relsSubset(a, b []schema.RelPath) bool {
	if len(a) > len(b) {
		return false
	}
	set := make(map[schema.RelPath]bool, len(b))
	for _, r := range b {
		set[r] = true
	}
	for _, r := range a {
		if !set[r] {
			return false
		}
	}
	return true
}

func relsEqual(a, b []schema.RelPath) bool {
	return len(a) == len(b) && relsSubset(a, b)
}

// minimalOracle keeps lhs[i] unless another member of its group has a
// strict subset LHS, or an equal one at an earlier index.
func minimalOracle(n int, group func(int) string, lhs func(int) []schema.RelPath) []bool {
	keep := make([]bool, n)
	for i := range n {
		keep[i] = true
		for j := range n {
			if i == j || group(i) != group(j) {
				continue
			}
			if relsEqual(lhs(j), lhs(i)) {
				if j < i {
					keep[i] = false
				}
				continue
			}
			if relsSubset(lhs(j), lhs(i)) {
				keep[i] = false
			}
		}
	}
	return keep
}

func fdGoal(f FD) string { return string(f.Class) + "\x00" + string(f.RHS) }

func minimizeFDsOracle(fds []FD) []FD {
	return kept(fds, minimalOracle(len(fds),
		func(i int) string { return fdGoal(fds[i]) },
		func(i int) []schema.RelPath { return fds[i].LHS }))
}

func minimizeKeysOracle(keys []Key) []Key {
	return kept(keys, minimalOracle(len(keys),
		func(i int) string { return string(keys[i].Class) },
		func(i int) []schema.RelPath { return keys[i].LHS }))
}

func dropSuperkeyLHSOracle(fds []FD, keys []Key) []FD {
	var out []FD
	for _, fd := range fds {
		super := false
		for _, k := range keys {
			if k.Class == fd.Class && relsSubset(k.LHS, fd.LHS) {
				super = true
				break
			}
		}
		if !super {
			out = append(out, fd)
		}
	}
	return out
}

func minimizeApproxOracle(approx, exact []FD) []FD {
	keep := minimalOracle(len(approx),
		func(i int) string { return fdGoal(approx[i]) },
		func(i int) []schema.RelPath { return approx[i].LHS })
	for i, a := range approx {
		for _, e := range exact {
			if fdGoal(e) == fdGoal(a) && relsSubset(e.LHS, a.LHS) {
				keep[i] = false
			}
		}
	}
	return kept(approx, keep)
}

// randomLHS draws up to maxSize distinct paths from a window of the
// pool, in random order, so that subsets and duplicates are common.
func randomLHS(r *rand.Rand, pool []schema.RelPath, maxSize int) []schema.RelPath {
	window := min(len(pool), 8)
	base := r.Intn(len(pool) - window + 1)
	perm := r.Perm(window)
	lhs := make([]schema.RelPath, r.Intn(maxSize+1))
	for i := range lhs {
		lhs[i] = pool[base+perm[i]]
	}
	return lhs
}

// randomConstraints builds FD and key lists over two classes: /wide
// has 100 distinct LHS paths, more than one signature word holds, and
// /narrow has five. A quarter of the entries repeat an earlier LHS in
// another order.
func randomConstraints(r *rand.Rand, n int) ([]FD, []Key) {
	pools := map[schema.Path][]schema.RelPath{}
	for _, c := range []struct {
		class schema.Path
		paths int
	}{{"/wide", 100}, {"/narrow", 5}} {
		for i := range c.paths {
			pools[c.class] = append(pools[c.class], schema.RelPath(fmt.Sprintf("./p%d", i)))
		}
	}
	classes := []schema.Path{"/wide", "/narrow"}
	rhs := []schema.RelPath{"./x", "./y", "./z"}
	var fds []FD
	var keys []Key
	for range n {
		class := classes[r.Intn(len(classes))]
		lhs := randomLHS(r, pools[class], 5)
		if len(fds) > 0 && r.Intn(4) == 0 {
			prev := fds[r.Intn(len(fds))]
			class, lhs = prev.Class, append([]schema.RelPath(nil), prev.LHS...)
			r.Shuffle(len(lhs), func(i, j int) { lhs[i], lhs[j] = lhs[j], lhs[i] })
		}
		fds = append(fds, FD{Class: class, LHS: lhs, RHS: rhs[r.Intn(len(rhs))]})
		if r.Intn(3) == 0 {
			keys = append(keys, Key{Class: class, LHS: randomLHS(r, pools[class], 4)})
		}
	}
	return fds, keys
}

// TestMinimizersMatchPairwiseOracle pins the interned minimizers to the
// pairwise path-set comparisons they replaced, over random constraint
// lists with one class wider than a signature word. One interner
// serves every call of a seed, as one serves the minimize stage.
func TestMinimizersMatchPairwiseOracle(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		r := rand.New(rand.NewSource(seed))
		fds, keys := randomConstraints(r, 10+r.Intn(150))
		approx, _ := randomConstraints(r, 10+r.Intn(150))
		in := newLHSInterner()

		gotFDs := in.minimizeFDs(fds)
		if want := minimizeFDsOracle(fds); !reflect.DeepEqual(gotFDs, want) {
			t.Fatalf("seed %d: minimizeFDs\ngot  %v\nwant %v", seed, gotFDs, want)
		}
		gotKeys := in.minimizeKeys(keys)
		if want := minimizeKeysOracle(keys); !reflect.DeepEqual(gotKeys, want) {
			t.Fatalf("seed %d: minimizeKeys\ngot  %v\nwant %v", seed, gotKeys, want)
		}
		// dropSuperkeyLHS filters in place, so it gets a copy; an
		// empty result may be nil or not.
		want := dropSuperkeyLHSOracle(gotFDs, gotKeys)
		if got := in.dropSuperkeyLHS(append([]FD(nil), gotFDs...), gotKeys); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: dropSuperkeyLHS\ngot  %v\nwant %v", seed, got, want)
		}
		got := in.minimizeApprox(approx, fds[:len(fds)/2])
		if want := minimizeApproxOracle(approx, fds[:len(fds)/2]); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: minimizeApprox\ngot  %v\nwant %v", seed, got, want)
		}
	}
}

// TestFigure8ReportsOnlyMinimalKeys pins the visit-time key check of
// Figure 8 traversals: a node queued before a key it contains was
// found later on its level is skipped, not reported as a key that
// minimize would drop, so no key the lattice reports over
// DefaultWide(14) contains another.
func TestFigure8ReportsOnlyMinimalKeys(t *testing.T) {
	ds := xmlgen.Wide(xmlgen.DefaultWide(14))
	h, err := relation.Build(ds.Tree, ds.Schema, relation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := h.Relations[len(h.Relations)-1]
	opts := Options{NoInterRelation: true}
	var st Stats
	lr := &latticeRun{rel: r, opts: &opts, stats: &st, cache: newPartitionCache(len(h.Relations), 0)}
	lr.run()
	lr.close()
	if len(lr.keys) == 0 {
		t.Fatal("the traversal found no key")
	}
	for _, k := range lr.keys {
		for _, sub := range lr.keys {
			if k != sub && k.Contains(sub) {
				t.Fatalf("reported key %v contains reported key %v (%d keys reported)", k.Attrs(), sub.Attrs(), len(lr.keys))
			}
		}
	}
}

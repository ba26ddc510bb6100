package core

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"time"

	"discoverxfd/internal/partition"
	"discoverxfd/internal/relation"
	"discoverxfd/internal/xmlgen"
)

// diffDatasets returns the differential-test corpus: every generator
// family plus randomized wide relations (varying seed, domain and
// noise) whose value distributions stress the interned counting
// builds and the cache, and a 400-row table whose levels reach the
// level precompute's gate.
func diffDatasets() []xmlgen.Dataset {
	sets := []xmlgen.Dataset{
		xmlgen.Warehouse(xmlgen.DefaultWarehouse()),
		xmlgen.Auction(xmlgen.DefaultAuction()),
		xmlgen.Mondial(xmlgen.DefaultMondial()),
		xmlgen.PSD(xmlgen.DefaultPSD()),
		xmlgen.DBLP(xmlgen.DefaultDBLP()),
	}
	for seed := int64(1); seed <= 4; seed++ {
		sets = append(sets, xmlgen.Wide(xmlgen.WideParams{
			Rows:          200,
			Attrs:         8,
			Domain:        int(2 + 5*seed),
			FDEvery:       2,
			NoisePermille: int(10 * (seed - 1)),
			Seed:          seed,
		}))
	}
	sets = append(sets, xmlgen.Wide(xmlgen.DefaultWide(10)))
	// Missing leaves in the g and p relations make ancestor paths of
	// inter-relation LHSs null for some tuples of their descendants.
	sets = append(sets, xmlgen.Dataset{Name: "random-nulls(seed=5)", Tree: randomDoc(5), Schema: naiveSchema})
	return sets
}

// TestVerifyMatchesEvaluate is the differential property of the verify
// stage: for every FD minimize hands to verify, before the Definition
// 11 filter, the partition-derived Evaluation equals Evaluate's.
func TestVerifyMatchesEvaluate(t *testing.T) {
	inter, nullsAbove := 0, 0
	for _, ds := range diffDatasets() {
		h, err := relation.Build(ds.Tree, ds.Schema, relation.Options{})
		if err != nil {
			t.Fatalf("%s: %v", ds.Name, err)
		}
		run := newRun(context.Background(), h, Options{}, time.Time{})
		if err := run.plan(); err != nil {
			t.Fatalf("%s: %v", ds.Name, err)
		}
		if err := run.traverse(run.gov.ctx, h.Root); err != nil {
			t.Fatalf("%s: %v", ds.Name, err)
		}
		var all relOutput
		run.collect(h.Root, &all)
		v := newVerifier(h, run.cache, false)
		for _, fd := range run.minimize(all.fds, all.keys) {
			got, err := v.verifyFD(fd)
			if err != nil {
				t.Fatalf("%s: verify %s: %v", ds.Name, fd, err)
			}
			want, err := Evaluate(h, fd.Class, fd.LHS, fd.RHS)
			if err != nil {
				t.Fatalf("%s: evaluate %s: %v", ds.Name, fd, err)
			}
			if got != want {
				t.Errorf("%s: %s: verify %+v, Evaluate %+v", ds.Name, fd, got, want)
			}
			if fd.Inter {
				inter++
				if run.nullsAtOrAbove[h.ByPivot(fd.Class).Parent.Index] {
					nullsAbove++
				}
			}
		}
		v.close()
	}
	// Lifted null singletons are exercised only where ancestors have
	// missing values.
	if nullsAbove == 0 {
		t.Errorf("none of the %d inter-relation FDs verified has missing values above its class", inter)
	}
}

// TestFastPathMatchesNaive is the end-to-end differential property:
// the interned + cached partition engine, with its level precompute,
// must produce the same FD/Key/redundancy/approximate-FD cover as the
// naive engine (generic hashed partition builds, lazy products,
// evaluator-only verification) on every dataset, including under
// aggressive cache eviction, and visit the same nodes with the same
// products. The naive engine never precomputes; the fast one must on
// the corpus that reaches the gate. Run under -race this also
// exercises the product workers for sharing bugs.
func TestFastPathMatchesNaive(t *testing.T) {
	precomputed := false
	for _, ds := range diffDatasets() {
		h, err := relation.Build(ds.Tree, ds.Schema, relation.Options{})
		if err != nil {
			t.Fatalf("%s: %v", ds.Name, err)
		}
		base := Options{ApproxError: 0.05}

		naiveOpts := base
		naiveOpts.NaivePartitions = true
		naive, err := discoverCold(h, naiveOpts)
		if err != nil {
			t.Fatal(err)
		}
		want := render(naive)

		fastVariants := map[string]func(*Options){
			"fast":       func(o *Options) {},
			"fast+evict": func(o *Options) { o.MaxPartitionBytes = 1 },
		}
		for name, tweak := range fastVariants {
			opts := base
			tweak(&opts)
			fast, err := discoverCold(h, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", ds.Name, name, err)
			}
			if got := render(fast); got != want {
				t.Errorf("%s/%s: result differs from naive engine\nnaive:\n%s\n%s:\n%s",
					ds.Name, name, want, name, got)
			}
			if fast.Stats.PartitionCacheHits == 0 {
				t.Errorf("%s/%s: fast path reported no cache hits", ds.Name, name)
			}
			if fast.Stats.NodesVisited != naive.Stats.NodesVisited || fast.Stats.PartitionsComputed != naive.Stats.PartitionsComputed {
				t.Errorf("%s/%s: %d nodes and %d products, naive engine %d and %d", ds.Name, name,
					fast.Stats.NodesVisited, fast.Stats.PartitionsComputed, naive.Stats.NodesVisited, naive.Stats.PartitionsComputed)
			}
			if fast.Stats.ParallelProducts > 0 {
				precomputed = true
			}
		}
		if naive.Stats.ParallelProducts != 0 {
			t.Errorf("%s: naive engine reported %d parallel products", ds.Name, naive.Stats.ParallelProducts)
		}
	}
	if !precomputed {
		t.Error("no corpus reached the level precompute")
	}
}

// TestNaiveColumnsOrderGroupsDifferently keeps TestFastPathMatchesNaive
// an oracle for group-order independence. The naive engine builds
// column partitions with FromCodes (groups in order of their second
// row), the fast engine with Relation.ColumnPartition (FromDense,
// groups in order of their smallest row). Both must hold the same
// groups, and on every corpus but random-nulls some column must store
// them in another order, so the two engines multiply differently
// ordered partitions. A re-sort in either builder would make the
// differential test blind to group order; this test fails first.
func TestNaiveColumnsOrderGroupsDifferently(t *testing.T) {
	for _, ds := range diffDatasets() {
		h, err := relation.Build(ds.Tree, ds.Schema, relation.Options{})
		if err != nil {
			t.Fatalf("%s: %v", ds.Name, err)
		}
		cols, reordered := 0, 0
		for _, r := range h.Relations {
			for i := range r.Attrs {
				naive, fast := partition.FromCodes(r.Cols[i]), r.ColumnPartition(i)
				if !naive.Equal(fast) {
					t.Errorf("%s: relation %s column %s: FromCodes and FromDense group differently", ds.Name, r.Pivot, r.Attrs[i].Rel)
					continue
				}
				cols++
				for g := range naive.Size() {
					if naive.Group(g)[0] != fast.Group(g)[0] {
						reordered++
						break
					}
				}
			}
		}
		t.Logf("%s: %d of %d columns order their groups differently", ds.Name, reordered, cols)
		if reordered == 0 && !strings.HasPrefix(ds.Name, "random-nulls") {
			t.Errorf("%s: all %d columns store their groups in the same order under both builders", ds.Name, cols)
		}
	}
}

// TestFastPartitionsMatchNaive is the partition-level property: for
// random attribute sets of every relation, the cache's dense-interned
// build + product chain yields a partition Equal to the generic
// hashed build chain.
func TestFastPartitionsMatchNaive(t *testing.T) {
	ds := xmlgen.Warehouse(xmlgen.DefaultWarehouse())
	h, err := relation.Build(ds.Tree, ds.Schema, relation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for _, r := range h.Relations {
		fastCache := newPartitionCache(len(h.Relations), 0)
		naiveCache := newPartitionCache(len(h.Relations), 0)
		frp, nrp := fastCache.store(r), naiveCache.store(r)
		sc := partition.NewScratch(r.NRows())
		m := r.NAttrs()
		sets := []AttrSet{0}
		for i := 0; i < m; i++ {
			sets = append(sets, AttrSet(0).Add(i))
		}
		for i := 0; i < 20; i++ {
			a := AttrSet(0)
			for j := 0; j < m; j++ {
				if rng.Intn(2) == 1 {
					a = a.Add(j)
				}
			}
			sets = append(sets, a)
		}
		for _, a := range sets {
			fast := fastCache.partitionOf(frp, a, sc, false, nil)
			naive := naiveCache.partitionOf(nrp, a, sc, true, nil)
			if !fast.Equal(naive) {
				t.Errorf("relation %s set %b: fast partition differs from naive", r.Pivot, a)
			}
			if again := fastCache.partitionOf(frp, a, sc, false, nil); again != fast {
				t.Errorf("relation %s set %b: cache returned a different object on rehit", r.Pivot, a)
			}
		}
	}
}

// storeBytes recomputes a store's charge from what it holds.
func storeBytes(rp *relPartitions) int64 {
	n := int64(0)
	for _, p := range rp.parts {
		n += p.MemBytes()
	}
	for _, g := range rp.gids {
		n += 4 * int64(len(g))
	}
	for _, nl := range rp.nulls {
		n += int64(len(nl))
	}
	return n
}

// TestCacheEvictionRecomputes checks that trimming a retired store
// down to its column partitions loses no information: a later lookup
// rebuilds the same partition. The cache's byte gauge must count the
// derived lookups as well as the partitions, before and after the
// trim.
func TestCacheEvictionRecomputes(t *testing.T) {
	ds := xmlgen.Wide(xmlgen.WideParams{Rows: 100, Attrs: 6, Domain: 4, FDEvery: 2, Seed: 3})
	h, err := relation.Build(ds.Tree, ds.Schema, relation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := h.Relations[len(h.Relations)-1]
	cache := newPartitionCache(len(h.Relations), 1) // evict everything trimmable at retire
	rp := cache.store(r)
	sc := partition.NewScratch(r.NRows())
	a := AttrSet(0).Add(0).Add(1).Add(2)
	before := cache.partitionOf(rp, a, sc, false, nil)
	cache.nullsOf(rp, a, func() []bool { return make([]bool, r.NRows()) })
	if got, want := cache.bytes, storeBytes(rp); got != want || len(rp.gids) == 0 {
		t.Fatalf("cache charges %d bytes for a store holding %d (%d group-id lookups)", got, want, len(rp.gids))
	}
	cache.retire(rp)
	if _, ok := rp.parts[a]; ok {
		t.Fatal("retire under a 1-byte budget kept a multi-attribute partition")
	}
	if got, want := cache.bytes, storeBytes(rp); got != want || len(rp.gids)+len(rp.nulls) != 0 {
		t.Fatalf("after the trim the cache charges %d bytes for a store holding %d (%d lookups kept)", got, want, len(rp.gids)+len(rp.nulls))
	}
	if cache.evictions == 0 {
		t.Fatal("no evictions counted")
	}
	after := cache.partitionOf(rp, a, sc, false, nil)
	if !after.Equal(before) {
		t.Fatal("rebuilt partition differs from the evicted one")
	}
}

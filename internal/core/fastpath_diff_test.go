package core

import (
	"math/rand"
	"testing"

	"discoverxfd/internal/partition"
	"discoverxfd/internal/relation"
	"discoverxfd/internal/xmlgen"
)

// diffDatasets returns the differential-test corpus: every generator
// family plus randomized wide relations (varying seed, domain and
// noise) whose value distributions stress the interned counting
// builds, the cache, and the parallel level precompute.
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
		run := newRun(nil, h, Options{PropagatePartial: true}, true)
		if err := run.plan(); err != nil {
			t.Fatalf("%s: %v", ds.Name, err)
		}
		top := run.traverse(run.gov.ctx, h.Root)
		if top.err != nil {
			t.Fatalf("%s: %v", ds.Name, top.err)
		}
		v := newVerifier(h, run.cache, false)
		for _, fd := range run.minimize(&top) {
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
// the interned + cached + parallel partition engine must produce the
// same FD/Key/redundancy/approximate-FD cover as the naive engine
// (generic hashed partition builds, serial products, evaluator-only
// verification) on every dataset, including under aggressive cache
// eviction. Run under -race this also exercises the parallel product
// workers for sharing bugs.
func TestFastPathMatchesNaive(t *testing.T) {
	for _, ds := range diffDatasets() {
		h, err := relation.Build(ds.Tree, ds.Schema, relation.Options{})
		if err != nil {
			t.Fatalf("%s: %v", ds.Name, err)
		}
		base := Options{PropagatePartial: true, ApproxError: 0.05}

		naiveOpts := base
		naiveOpts.NaivePartitions = true
		naive, err := Discover(h, naiveOpts)
		if err != nil {
			t.Fatal(err)
		}
		want := render(naive)

		fastVariants := map[string]func(*Options){
			"fast":          func(o *Options) {},
			"fast+parallel": func(o *Options) { o.Parallel = true },
			"fast+evict":    func(o *Options) { o.Parallel = true; o.MaxPartitionBytes = 1 },
		}
		for name, tweak := range fastVariants {
			opts := base
			tweak(&opts)
			fast, err := Discover(h, opts)
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
		}
		if naive.Stats.ParallelProducts != 0 {
			t.Errorf("%s: naive engine reported %d parallel products", ds.Name, naive.Stats.ParallelProducts)
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
		fastCache := newPartitionCache(0)
		naiveCache := newPartitionCache(0)
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

// TestCacheEvictionRecomputes checks that trimming a retired store
// down to its column partitions loses no information: a later lookup
// rebuilds the same partition.
func TestCacheEvictionRecomputes(t *testing.T) {
	ds := xmlgen.Wide(xmlgen.WideParams{Rows: 100, Attrs: 6, Domain: 4, FDEvery: 2, Seed: 3})
	h, err := relation.Build(ds.Tree, ds.Schema, relation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := h.Relations[len(h.Relations)-1]
	cache := newPartitionCache(1) // evict everything trimmable at retire
	rp := cache.store(r)
	sc := partition.NewScratch(r.NRows())
	a := AttrSet(0).Add(0).Add(1).Add(2)
	before := cache.partitionOf(rp, a, sc, false, nil)
	cache.retire(rp)
	if _, ok := rp.parts[a]; ok {
		t.Fatal("retire under a 1-byte budget kept a multi-attribute partition")
	}
	if cache.evictions.Load() == 0 {
		t.Fatal("no evictions counted")
	}
	after := cache.partitionOf(rp, a, sc, false, nil)
	if !after.Equal(before) {
		t.Fatal("rebuilt partition differs from the evicted one")
	}
}

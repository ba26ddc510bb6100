package core

import (
	"fmt"
	"math/rand"
	"testing"

	"discoverxfd/internal/datatree"
	"discoverxfd/internal/relation"
	"discoverxfd/internal/schema"
	"discoverxfd/internal/xmlgen"
)

// naiveSchema is a three-level hierarchy with a nested simple set,
// exercising every structural case: multi-level LHSs, set
// pseudo-attributes, missing values.
var naiveSchema = schema.MustParse(`
root: Rcd
  g: SetOf Rcd
    gx: str
    gy: str
    p: SetOf Rcd
      px: str
      py: str
      c: SetOf Rcd
        cx: str
        cy: str
        m: SetOf str
`)

// randomDoc builds a random document over naiveSchema with tiny value
// domains (to force agreeing tuples) and occasional missing leaves
// (to exercise strong-satisfaction nulls).
func randomDoc(seed int64) *datatree.Tree {
	r := rand.New(rand.NewSource(seed))
	v := func(prefix string, dom int) string {
		return fmt.Sprintf("%s%d", prefix, r.Intn(dom))
	}
	maybeLeaf := func(n *datatree.Node, label, val string) {
		if r.Intn(10) > 0 { // 10% missing
			n.AddLeaf(label, val)
		}
	}
	root := &datatree.Node{Label: "root"}
	for gi, ng := 0, 2+r.Intn(2); gi < ng; gi++ {
		g := root.AddChild("g")
		maybeLeaf(g, "gx", v("x", 2))
		maybeLeaf(g, "gy", v("y", 2))
		for pi, np := 0, 1+r.Intn(3); pi < np; pi++ {
			p := g.AddChild("p")
			maybeLeaf(p, "px", v("x", 2))
			maybeLeaf(p, "py", v("y", 3))
			for ci, nc := 0, r.Intn(4); ci < nc; ci++ {
				c := p.AddChild("c")
				maybeLeaf(c, "cx", v("x", 2))
				maybeLeaf(c, "cy", v("y", 3))
				for mi, nm := 0, r.Intn(3); mi < nm; mi++ {
					c.AddLeaf("m", v("m", 2))
				}
			}
		}
	}
	return datatree.NewTree(root)
}

// availablePaths lists every candidate FD path for a class: the
// origin relation's attributes plus all ancestor attributes, lifted
// into the origin's relative notation.
func availablePaths(h *relation.Hierarchy, origin *relation.Relation) []schema.RelPath {
	depths := relationDepths(h)
	var out []schema.RelPath
	for rel := origin; rel != nil; rel = rel.Parent {
		if !rel.Essential && rel != origin {
			break // stop at the synthetic root
		}
		for i := range rel.Attrs {
			out = append(out, relPathsFor(rel, AttrSet(0).Add(i), origin, depths)...)
		}
	}
	return out
}

// impliedFD reports whether some discovered FD implies the candidate:
// same class and RHS, discovered LHS ⊆ candidate LHS.
func impliedFD(res *Result, class schema.Path, lhs []schema.RelPath, rhs schema.RelPath) bool {
	set := map[schema.RelPath]bool{}
	for _, p := range lhs {
		set[p] = true
	}
	for _, fd := range res.FDs {
		if fd.Class != class || fd.RHS != rhs {
			continue
		}
		ok := true
		for _, p := range fd.LHS {
			if !set[p] {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// impliedKey reports whether some discovered key's LHS is a subset of
// the candidate LHS for the class.
func impliedKey(res *Result, class schema.Path, lhs []schema.RelPath) bool {
	set := map[schema.RelPath]bool{}
	for _, p := range lhs {
		set[p] = true
	}
	for _, k := range res.Keys {
		if k.Class != class {
			continue
		}
		ok := true
		for _, p := range k.LHS {
			if !set[p] {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// intraKeyStrictlyInside reports whether a discovered *intra* key of
// the class sits strictly inside the candidate's origin-level
// attribute set plus RHS. Figure 8/9 prune the expansion of key
// supersets, so edges whose node strictly contains a key never seed
// partition targets — a documented incompleteness of the published
// algorithm that the completeness assertion must mirror.
func intraKeyStrictlyInside(res *Result, class schema.Path, originLHS []schema.RelPath, rhs schema.RelPath) bool {
	node := map[schema.RelPath]bool{rhs: true}
	for _, p := range originLHS {
		node[p] = true
	}
	for _, k := range res.Keys {
		if k.Class != class || k.Inter {
			continue
		}
		inside := true
		for _, p := range k.LHS {
			if !node[p] {
				inside = false
				break
			}
		}
		if inside && len(k.LHS) < len(node) {
			return true
		}
	}
	return false
}

func isOriginPath(p schema.RelPath) bool {
	return p == "." || (len(p) >= 2 && p[0] == '.' && p[1] == '/')
}

// TestDiscoverMatchesNaiveEnumeration is the system's central
// correctness check: on many small random documents, every discovered
// FD and Key must verify against the independent evaluator
// (soundness), and every holding candidate constraint with up to two
// LHS paths must be implied by the discovery output (completeness,
// modulo the key-superset pruning the paper builds in).
func TestDiscoverMatchesNaiveEnumeration(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			tree := randomDoc(seed)
			h, err := relation.Build(tree, naiveSchema, relation.Options{})
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			res, err := Discover(h, Options{PropagatePartial: true, KeepConstantFDs: true})
			if err != nil {
				t.Fatalf("discover: %v", err)
			}

			// Soundness: every discovered FD holds with a non-key
			// LHS; every discovered Key is a key.
			for _, fd := range res.FDs {
				ev, err := Evaluate(h, fd.Class, fd.LHS, fd.RHS)
				if err != nil {
					t.Fatalf("evaluate %s: %v", fd, err)
				}
				if !ev.Holds {
					t.Errorf("unsound FD: %s (%d violations)", fd, ev.Violations)
				}
				if ev.LHSIsKey {
					t.Errorf("FD with key LHS reported: %s", fd)
				}
			}
			for _, k := range res.Keys {
				rel := h.ByPivot(k.Class)
				ev, err := Evaluate(h, k.Class, k.LHS, rel.Attrs[0].Rel)
				if err != nil {
					t.Fatalf("evaluate key %s: %v", k, err)
				}
				if !ev.LHSIsKey {
					t.Errorf("unsound key: %s", k)
				}
			}

			checkComplete(t, h, res)
		})
	}
}

// checkComplete is the completeness half of the oracle: every
// candidate FD and Key over h with at most two LHS paths that holds
// must be implied by the discovery output res, modulo the key-superset
// pruning the paper builds in (intraKeyStrictlyInside).
func checkComplete(t *testing.T, h *relation.Hierarchy, res *Result) {
	t.Helper()
	for _, origin := range h.EssentialRelations() {
		if origin.NRows() < 2 {
			continue
		}
		paths := availablePaths(h, origin)
		var rhss []schema.RelPath
		for i := range origin.Attrs {
			rhss = append(rhss, origin.Attrs[i].Rel)
		}
		var cands [][]schema.RelPath
		cands = append(cands, nil)
		for i, p := range paths {
			cands = append(cands, []schema.RelPath{p})
			for _, q := range paths[i+1:] {
				cands = append(cands, []schema.RelPath{p, q})
			}
		}
		for _, lhs := range cands {
			// Key candidates.
			if len(lhs) > 0 {
				ev, err := Evaluate(h, origin.Pivot, lhs, rhss[0])
				if err != nil {
					t.Fatalf("evaluate: %v", err)
				}
				if ev.LHSIsKey && !impliedKey(res, origin.Pivot, lhs) {
					t.Errorf("missed key: {%v} of C(%s)", lhs, origin.Pivot)
				}
			}
			// FD candidates.
			for _, rhs := range rhss {
				skip := false
				var originLHS []schema.RelPath
				for _, p := range lhs {
					if p == rhs {
						skip = true // trivial
					}
					if isOriginPath(p) {
						originLHS = append(originLHS, p)
					}
				}
				if skip {
					continue
				}
				ev, err := Evaluate(h, origin.Pivot, lhs, rhs)
				if err != nil {
					t.Fatalf("evaluate: %v", err)
				}
				if !ev.Holds || ev.LHSIsKey {
					continue
				}
				if intraKeyStrictlyInside(res, origin.Pivot, originLHS, rhs) {
					continue // documented pruning limitation
				}
				if !impliedFD(res, origin.Pivot, lhs, rhs) {
					t.Errorf("missed FD: {%v} -> %s w.r.t. C(%s)", lhs, rhs, origin.Pivot)
				}
			}
		}
	}
}

// TestDiscoverCompleteOnGenerators runs the completeness oracle over
// every generator at its default scale, and over psd ×8 at generator
// seeds 1–4, whose keyword relation carries large partition targets.
func TestDiscoverCompleteOnGenerators(t *testing.T) {
	type corpus struct {
		name string
		ds   xmlgen.Dataset
	}
	var corpora []corpus
	for _, ds := range []xmlgen.Dataset{
		xmlgen.Warehouse(xmlgen.DefaultWarehouse()),
		xmlgen.DBLP(xmlgen.DefaultDBLP()),
		xmlgen.Auction(xmlgen.DefaultAuction()),
		xmlgen.Mondial(xmlgen.DefaultMondial()),
		xmlgen.Catalog(xmlgen.DefaultCatalog()),
		xmlgen.PSD(xmlgen.DefaultPSD()),
	} {
		corpora = append(corpora, corpus{ds.Name, ds})
	}
	for seed := int64(1); seed <= 4; seed++ {
		p := xmlgen.DefaultPSD()
		p.Entries *= 8
		p.Seed = seed
		ds := xmlgen.PSD(p)
		corpora = append(corpora, corpus{fmt.Sprintf("%s/seed=%d", ds.Name, seed), ds})
	}
	for _, c := range corpora {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			h, err := relation.Build(c.ds.Tree, c.ds.Schema, relation.Options{})
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			res, err := Discover(h, Options{PropagatePartial: true, KeepConstantFDs: true})
			if err != nil {
				t.Fatalf("discover: %v", err)
			}
			if res.Stats.Truncated {
				t.Fatalf("untruncated run reported truncation: %s", res.Stats.TruncatedReason)
			}
			checkComplete(t, h, res)
		})
	}
}

// TestDiscoverSoundUnderVariants runs the soundness half of the
// cross-check under every option variation: whatever the
// configuration, nothing unsound may ever be reported.
func TestDiscoverSoundUnderVariants(t *testing.T) {
	variants := []struct {
		name  string
		ropts relation.Options
		copts Options
	}{
		{"ordered-sets", relation.Options{OrderedSets: true}, Options{PropagatePartial: true}},
		{"no-set-attrs", relation.Options{DisableSetAttrs: true}, Options{PropagatePartial: true}},
		{"maxlhs-1", relation.Options{}, Options{PropagatePartial: true, MaxLHS: 1}},
		{"no-propagation", relation.Options{}, Options{PropagatePartial: false}},
		{"parallel", relation.Options{}, Options{PropagatePartial: true, Parallel: true}},
		{"tiny-caps", relation.Options{}, Options{PropagatePartial: true, MaxTargetsPerRelation: 3}},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			for seed := int64(1); seed <= 12; seed++ {
				tree := randomDoc(seed)
				h, err := relation.Build(tree, naiveSchema, v.ropts)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Discover(h, v.copts)
				if err != nil {
					t.Fatal(err)
				}
				for _, fd := range res.FDs {
					ev, err := Evaluate(h, fd.Class, fd.LHS, fd.RHS)
					if err != nil {
						t.Fatalf("seed %d: evaluate %s: %v", seed, fd, err)
					}
					if !ev.Holds || ev.LHSIsKey {
						t.Errorf("seed %d: unsound FD under %s: %s (holds=%v key=%v)",
							seed, v.name, fd, ev.Holds, ev.LHSIsKey)
					}
				}
				for _, k := range res.Keys {
					rel := h.ByPivot(k.Class)
					ev, err := Evaluate(h, k.Class, k.LHS, rel.Attrs[0].Rel)
					if err != nil {
						t.Fatalf("seed %d: evaluate key %s: %v", seed, k, err)
					}
					if !ev.LHSIsKey {
						t.Errorf("seed %d: unsound key under %s: %s", seed, v.name, k)
					}
				}
			}
		})
	}
}

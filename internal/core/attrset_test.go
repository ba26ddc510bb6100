package core

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"discoverxfd/internal/schema"
)

func TestAttrSetBasics(t *testing.T) {
	var s AttrSet
	if s.Size() != 0 || s.MaxBit() != -1 || len(s.Attrs()) != 0 {
		t.Fatal("empty set wrong")
	}
	s = s.Add(3).Add(0).Add(7)
	if !s.Has(3) || !s.Has(0) || !s.Has(7) || s.Has(1) {
		t.Fatal("Has wrong")
	}
	if s.Size() != 3 || s.MaxBit() != 7 {
		t.Fatalf("Size=%d MaxBit=%d", s.Size(), s.MaxBit())
	}
	got := s.Attrs()
	want := []int{0, 3, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Attrs = %v", got)
		}
	}
	s2 := s.Without(3)
	if s2.Has(3) || !s2.Has(0) {
		t.Fatal("Without wrong")
	}
	if !s.Contains(s2) || s2.Contains(s) {
		t.Fatal("Contains wrong")
	}
	if !s.Contains(s) || !s.Contains(0) {
		t.Fatal("Contains edge cases wrong")
	}
}

func TestAttrSetQuick(t *testing.T) {
	f := func(raw uint64, i uint8) bool {
		s := AttrSet(raw)
		b := int(i % 64)
		added := s.Add(b)
		if !added.Has(b) || added.Without(b).Has(b) {
			return false
		}
		if added.Size() < s.Size() || added.Size() > s.Size()+1 {
			return false
		}
		// Attrs round-trips.
		var back AttrSet
		for _, a := range s.Attrs() {
			back = back.Add(a)
		}
		return back == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFDString(t *testing.T) {
	fd := FD{Class: "/w/s/b", LHS: []schema.RelPath{"./x", "../y"}, RHS: "./z"}
	want := "{./x, ../y} -> ./z w.r.t. C(/w/s/b)"
	if fd.String() != want {
		t.Fatalf("FD.String = %q, want %q", fd.String(), want)
	}
	k := Key{Class: "/w/s", LHS: []schema.RelPath{"./id"}}
	if k.String() != "{./id} KEY of C(/w/s)" {
		t.Fatalf("Key.String = %q", k.String())
	}
}

func TestRelsHelpers(t *testing.T) {
	in := newLHSInterner()
	a := in.set([]schema.RelPath{"./x"})
	b := in.set([]schema.RelPath{"./x", "./y"})
	if !a.subsetOf(b) || b.subsetOf(a) {
		t.Fatal("subsetOf wrong")
	}
	yx := in.set([]schema.RelPath{"./y", "./x"})
	if !yx.subsetOf(b) || !b.subsetOf(yx) || len(yx.ids) != len(b.ids) {
		t.Fatal("path order changed an interned set")
	}
	// Past 64 paths, ids share signature bits: ./p62 and ./p63 get
	// ids 64 and 65, the bits of ./x and ./y.
	for i := range 70 {
		in.set([]schema.RelPath{schema.RelPath(fmt.Sprintf("./p%d", i))})
	}
	hi := in.set([]schema.RelPath{"./p63", "./p62"})
	if hi.sig != b.sig || hi.subsetOf(b) || b.subsetOf(hi) || !slices.Equal(hi.ids, []int32{64, 65}) {
		t.Fatalf("wide class: ids %v, signature %x against %x", hi.ids, hi.sig, b.sig)
	}
}

func TestMinimizeFDs(t *testing.T) {
	fds := []FD{
		{Class: "/c", LHS: []schema.RelPath{"./a", "./b"}, RHS: "./z"},
		{Class: "/c", LHS: []schema.RelPath{"./a"}, RHS: "./z"},
		{Class: "/c", LHS: []schema.RelPath{"./a"}, RHS: "./z"}, // duplicate
		{Class: "/c", LHS: []schema.RelPath{"./b"}, RHS: "./y"},
		{Class: "/d", LHS: []schema.RelPath{"./a", "./b"}, RHS: "./z"}, // other class: kept
	}
	out := newLHSInterner().minimizeFDs(fds)
	if len(out) != 3 {
		t.Fatalf("minimizeFDs kept %d, want 3: %v", len(out), out)
	}
	for _, fd := range out {
		if fd.Class == "/c" && fd.RHS == "./z" && len(fd.LHS) != 1 {
			t.Fatalf("non-minimal FD survived: %v", fd)
		}
	}
}

func TestMinimizeKeys(t *testing.T) {
	keys := []Key{
		{Class: "/c", LHS: []schema.RelPath{"./a", "./b"}},
		{Class: "/c", LHS: []schema.RelPath{"./a"}},
		{Class: "/c", LHS: []schema.RelPath{"./b", "./c"}},
		{Class: "/c", LHS: []schema.RelPath{"./a"}}, // duplicate
	}
	out := newLHSInterner().minimizeKeys(keys)
	if len(out) != 2 {
		t.Fatalf("minimizeKeys kept %d, want 2: %v", len(out), out)
	}
}

func TestDropSuperkeyLHS(t *testing.T) {
	keys := []Key{{Class: "/c", LHS: []schema.RelPath{"./k"}}}
	fds := []FD{
		{Class: "/c", LHS: []schema.RelPath{"./k", "./x"}, RHS: "./z"}, // superkey LHS
		{Class: "/c", LHS: []schema.RelPath{"./x"}, RHS: "./z"},
		{Class: "/d", LHS: []schema.RelPath{"./k"}, RHS: "./z"}, // other class
	}
	out := newLHSInterner().dropSuperkeyLHS(fds, keys)
	if len(out) != 2 {
		t.Fatalf("dropSuperkeyLHS kept %d, want 2: %v", len(out), out)
	}
}

func TestLiftRelPath(t *testing.T) {
	cases := []struct {
		in   schema.RelPath
		ups  int
		want schema.RelPath
	}{
		{"./x/y", 0, "./x/y"},
		{"./x", 1, "../x"},
		{"./x", 2, "../../x"},
		{".", 1, ".."},
		{".", 3, "../../.."},
	}
	for _, c := range cases {
		if got := liftRelPath(c.in, c.ups); got != c.want {
			t.Errorf("liftRelPath(%q,%d) = %q, want %q", c.in, c.ups, got, c.want)
		}
	}
}

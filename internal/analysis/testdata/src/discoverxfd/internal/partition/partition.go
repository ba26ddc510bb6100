// Package partition exercises the partimmut analyzer inside the
// partition package itself: constructors (functions whose results
// include a Partition) may write fields freely; anything else is a
// post-publication mutation of a shared, cached value.
package partition

// Partition mirrors the real stripped-partition representation: every
// group's rows back to back, and each group's offset.
type Partition struct {
	rows   []int32
	starts []int32
	NRows  int
}

// Group returns a view of group i's rows.
func (p *Partition) Group(i int) []int32 {
	lo, hi := p.starts[i], p.starts[i+1]
	return p.rows[lo:hi:hi]
}

// FromGroups is a sanctioned constructor: it returns the Partition it
// builds, so its field writes happen before publication.
func FromGroups(groups [][]int32, n int) *Partition {
	p := &Partition{}
	for _, g := range groups {
		p.starts = append(p.starts, int32(len(p.rows)))
		p.rows = append(p.rows, g...)
	}
	p.starts = append(p.starts, int32(len(p.rows)))
	p.NRows = n
	p.Group(0)[0] = 0
	return p
}

// shrink also has constructor shape (a Partition in its results).
func (p *Partition) shrink() *Partition {
	p.starts = p.starts[:2]
	return p
}

// reset mutates after construction: no Partition in the results.
func (p *Partition) reset() {
	p.NRows = 0 // want "write to Partition.NRows"
}

func poke(p *Partition) {
	p.rows[0] = 7       // want "write to Partition.rows"
	p.NRows++           // want "write to Partition.NRows"
	p.Group(0)[1] = 7   // want "write through Partition.Group"
	p.Group(1)[0]--     // want "write through Partition.Group"
	(p.Group(0))[0] = 7 // want "write through Partition.Group"
}

func clobber(dst *Partition, src Partition) {
	*dst = src // want "whole-struct overwrite of a shared Partition"
}

func scrub(p *Partition) {
	//lint:partimmut fixture models a documented pre-publication fixup on an unshared copy
	p.NRows = 0
}

// a helper that assembles a partition in place, without a Partition in
// its results, is flagged like any other post-publication write.
func (p *Partition) spliceFrom(prev *Partition) {
	p.rows = append(p.rows, prev.rows...) // want "write to Partition.rows"
}

// function literals follow the same constructor rule.
var fill = func(p *Partition) {
	p.NRows = 3 // want "write to Partition.NRows"
}

var build = func(groups [][]int32) *Partition {
	p := &Partition{}
	p.NRows = len(groups)
	return p
}

// reads are always fine, through the fields or a group view.
func size(p *Partition) int {
	g := p.Group(0)
	return p.NRows + len(p.starts) + int(g[0])
}

package main

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sort"
	"strconv"
	"time"
)

// The machine this benchmark was built on shares its cores with other
// machines' work. Their load comes and goes over seconds to minutes
// and slows every instruction we run — process CPU time grows with
// wall time, and no steal time is reported — at worst to half speed.
// Left alone, that makes runs of the same code minutes apart differ by
// more than any useful regression bound. So the timed window is cut into epochs,
// and before each epoch, with every client idle, a fixed probe
// measures how fast the host runs right now. Each epoch's times are
// scaled to a host on which the probe takes referenceProbe.
//
// The probe runs only standard-library code on inputs of its own —
// tokenizing an XML document with encoding/xml, building, indexing and
// sorting strings, sorting integers and hashing a buffer — with the
// collector off, so a change to the library cannot move it. Of the
// probes tried against psd_cold's op time over several minutes, this
// mix followed it closest: compute-bound probes alone slowed about 1.5
// times less than the op, allocation-heavy ones more, and their sum
// slowed as much as the op (correlation 0.92–0.94 of 3–6-second
// medians), leaving 4–6% of the op's 12–14% spread.

// referenceProbe is the probe's median duration on the 2-core host the
// benchmark's bounds were set on, at a quiet time. Its value only
// scales the reported times; comparisons do not depend on it.
const referenceProbe = 12 * time.Millisecond

type probe struct {
	doc          []byte
	keys, sorted []int
	buf          []byte
	sink         int
}

func newProbe() *probe {
	rng := rand.New(rand.NewSource(1))
	p := &probe{keys: rng.Perm(8192), buf: make([]byte, 64<<10)}
	p.sorted = make([]int, len(p.keys))
	rng.Read(p.buf)
	var doc bytes.Buffer
	doc.WriteString("<db>")
	for i := 0; i < 1500; i++ {
		fmt.Fprintf(&doc, `<rec id="r%d"><name>name %d</name><group>g%d</group><tag>t%d</tag><tag>t%d</tag><value>%d.%02d</value></rec>`,
			i, rng.Intn(500), rng.Intn(40), rng.Intn(12), rng.Intn(12), rng.Intn(1000), rng.Intn(100))
	}
	doc.WriteString("</db>")
	p.doc = doc.Bytes()
	return p
}

func (p *probe) once() {
	d := xml.NewDecoder(bytes.NewReader(p.doc))
	for {
		t, err := d.Token()
		if err != nil {
			break // io.EOF: the document is well formed
		}
		if cd, ok := t.(xml.CharData); ok {
			p.sink += len(cd)
		}
	}

	ss := make([]string, 0, 10000)
	index := make(map[string]int)
	for i := 0; i < 10000; i++ {
		s := "k" + strconv.Itoa(i*7919%10007)
		ss = append(ss, s)
		index[s] = i
	}
	sort.Strings(ss)
	p.sink += len(index) + len(ss[0])

	for i := 0; i < 3; i++ {
		copy(p.sorted, p.keys)
		sort.Ints(p.sorted)
	}
	h := uint64(14695981039346656037) // FNV-1a
	for i := 0; i < 10; i++ {
		for _, b := range p.buf {
			h = (h ^ uint64(b)) * 1099511628211
		}
	}
	p.sink += int(h>>1) + p.sorted[0]
}

// speed runs the probe five times and returns referenceProbe divided
// by the median duration: 1 on a host as fast as the reference, below
// 1 while the host runs slow. The collector is off meanwhile; turning
// it off waits for a cycle in progress to finish.
func (p *probe) speed() float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var ds []float64
	for r := 0; r < 5; r++ {
		start := time.Now()
		p.once()
		ds = append(ds, float64(time.Since(start)))
	}
	return float64(referenceProbe) / median(ds)
}

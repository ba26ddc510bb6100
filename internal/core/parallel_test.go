package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"discoverxfd/internal/relation"
	"discoverxfd/internal/xmlgen"
)

// atProcs runs fn with GOMAXPROCS set to procs, then restores it.
func atProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// countersOnly returns st with every time field zeroed, leaving the
// counters the host must not change.
func countersOnly(st Stats) Stats {
	st.IntraTime, st.InterTime, st.WallTime, st.Stages = 0, 0, 0, [numStages]time.Duration{}
	return st
}

// TestParallelMatchesSerial checks that the level precompute's worker
// count changes nothing but time: on every differential corpus,
// discovery at GOMAXPROCS=1 (one product worker) returns the same
// Result, and the same value in every Stats counter, as at the host's
// setting and at 4. The gate reads the input alone, so the Wide corpus
// that reaches it counts the same parallel products on every side.
func TestParallelMatchesSerial(t *testing.T) {
	for _, ds := range diffDatasets() {
		h, err := relation.Build(ds.Tree, ds.Schema, relation.Options{})
		if err != nil {
			t.Fatalf("%s: %v", ds.Name, err)
		}
		discover := func(procs int) (res *Result) {
			atProcs(procs, func() {
				if res, err = discoverCold(h, Options{ApproxError: 0.05}); err != nil {
					t.Fatalf("%s at GOMAXPROCS=%d: %v", ds.Name, procs, err)
				}
			})
			return res
		}
		serial := discover(1)
		for _, procs := range []int{runtime.GOMAXPROCS(0), 4} {
			parallel := discover(procs)
			if got, want := render(parallel), render(serial); got != want {
				t.Errorf("%s: result at GOMAXPROCS=%d differs from GOMAXPROCS=1\nserial:\n%s\nparallel:\n%s", ds.Name, procs, want, got)
			}
			if got, want := countersOnly(parallel.Stats), countersOnly(serial.Stats); got != want {
				t.Errorf("%s: Stats at GOMAXPROCS=%d differ from GOMAXPROCS=1:\n%+v\nwant\n%+v", ds.Name, procs, got, want)
			}
		}
	}
}

func render(res *Result) string {
	s := ""
	for i, fd := range res.FDs {
		s += fmt.Sprintf("FD %s w=%d\n", fd, res.Redundancies[i].RedundantValues)
	}
	for _, k := range res.Keys {
		s += "KEY " + k.String() + "\n"
	}
	for _, fd := range res.ApproxFDs {
		s += "APPROX " + fd.String() + "\n"
	}
	return s
}

// TestParallelRace runs discovery repeatedly on a table whose levels
// reach the precompute gate, with at least two product workers, so
// `go test -race` can catch sharing between the workers and the
// traversal.
func TestParallelRace(t *testing.T) {
	ds := xmlgen.Wide(xmlgen.DefaultWide(10))
	h, err := relation.Build(ds.Tree, ds.Schema, relation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	atProcs(max(2, runtime.GOMAXPROCS(0)), func() {
		for i := 0; i < 5; i++ {
			res, err := discoverCold(h, Options{ApproxError: 0.05})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.ParallelProducts == 0 {
				t.Fatalf("%s never reached the level precompute", ds.Name)
			}
		}
	})
}

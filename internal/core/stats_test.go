package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"discoverxfd/internal/datatree"
	"discoverxfd/internal/relation"
	"discoverxfd/internal/schema"
	"discoverxfd/internal/trace"
	"discoverxfd/internal/xmlgen"
)

func datatreeParse(xml string) (*datatree.Tree, error) { return datatree.ParseXMLString(xml) }

func schemaParse(text string) *schema.Schema { return schema.MustParse(text) }

// TestStatsConsistency sanity-checks the instrumentation: counters
// non-negative and internally consistent, times non-negative, tuple
// counts matching the hierarchy.
func TestStatsConsistency(t *testing.T) {
	ds := xmlgen.PSD(xmlgen.DefaultPSD())
	h, err := relation.Build(ds.Tree, ds.Schema, relation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := discoverCold(h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Relations != len(h.EssentialRelations()) {
		t.Errorf("Relations = %d, want %d", st.Relations, len(h.EssentialRelations()))
	}
	if st.Tuples != h.TotalTuples() {
		t.Errorf("Tuples = %d, want %d", st.Tuples, h.TotalTuples())
	}
	if st.NodesVisited <= 0 || st.PartitionsComputed < 0 {
		t.Errorf("lattice counters wrong: %+v", st)
	}
	if st.IntraTime < 0 || st.InterTime < 0 {
		t.Errorf("negative times: intra=%v inter=%v", st.IntraTime, st.InterTime)
	}
	if st.TargetsCreated < 0 || st.TargetsPropagated < 0 || st.TargetsDropped < 0 || st.TargetChecks < 0 {
		t.Errorf("negative target counters: %+v", st)
	}
	// Every reported inter FD requires at least one target check.
	inter := 0
	for _, fd := range res.FDs {
		if fd.Inter {
			inter++
		}
	}
	if inter > 0 && st.TargetChecks == 0 {
		t.Errorf("inter FDs without target checks: %+v", st)
	}
}

// TestStatsTimeAccounting pins the documented time semantics (see
// Stats). IntraTime and InterTime are exclusive, so their sum cannot
// exceed the run's wall clock — the regression check for
// double-counting — also where product workers compute a level's
// partitions (the Wide table). Stages is the run's one timing record,
// written traced or not: every stage took time, and the stages, which
// run one after another, sum to at most WallTime. In traced runs each
// stage_end carries exactly its Stages entry and run_end exactly
// WallTime.
func TestStatsTimeAccounting(t *testing.T) {
	if len(trace.Stages) != numStages {
		t.Fatalf("trace.Stages names %d stages, Stats.Stages holds %d", len(trace.Stages), numStages)
	}
	for _, ds := range []xmlgen.Dataset{xmlgen.PSD(xmlgen.DefaultPSD()), xmlgen.Wide(xmlgen.DefaultWide(10))} {
		h, err := relation.Build(ds.Tree, ds.Schema, relation.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			name := fmt.Sprintf("%s traced=%v", ds.Name, traced)
			tr := &captureTracer{}
			var opts Options
			if traced {
				opts.Tracer = tr
			}
			res, err := discoverCold(h, opts)
			if err != nil {
				t.Fatal(err)
			}
			st := res.Stats
			if st.WallTime <= 0 {
				t.Fatalf("%s: WallTime = %v, want > 0", name, st.WallTime)
			}
			if st.IntraTime < 0 || st.InterTime < 0 {
				t.Errorf("%s: negative component times: intra %v, inter %v", name, st.IntraTime, st.InterTime)
			}
			if sum := st.IntraTime + st.InterTime; sum > st.WallTime {
				t.Errorf("%s: run double-counts time: intra %v + inter %v > wall %v",
					name, st.IntraTime, st.InterTime, st.WallTime)
			}
			var sum time.Duration
			for i, d := range st.Stages {
				if d <= 0 {
					t.Errorf("%s: stage %s took %v, want > 0", name, trace.Stages[i], d)
				}
				sum += d
			}
			if sum > st.WallTime {
				t.Errorf("%s: stages sum to %v > wall %v", name, sum, st.WallTime)
			}
			ends := 0
			for _, ev := range tr.evs {
				switch ev.Kind {
				case trace.KindStageEnd:
					ends++
					if i := slices.Index(trace.Stages, ev.Stage); i < 0 || ev.DurationMS != ms(st.Stages[i]) {
						t.Errorf("%s: stage_end %s ms = %v, want Stats.Stages %v", name, ev.Stage, ev.DurationMS, st.Stages)
					}
				case trace.KindRunEnd:
					if ev.DurationMS != ms(st.WallTime) {
						t.Errorf("%s: run_end ms = %v, want WallTime %v", name, ev.DurationMS, st.WallTime)
					}
				}
			}
			if traced && ends != numStages {
				t.Errorf("%s: %d stage_end events, want %d", name, ends, numStages)
			}
		}
	}
}

// TestMergeStats checks the per-relation accumulator.
func TestMergeStats(t *testing.T) {
	a := Stats{Relations: 1, Tuples: 10, NodesVisited: 5, IntraTime: 100, InterTime: 7}
	b := Stats{Relations: 2, Tuples: 20, NodesVisited: 7, TargetsCreated: 3, IntraTime: 50}
	mergeStats(&a, &b)
	if a.Relations != 3 || a.Tuples != 30 || a.NodesVisited != 12 ||
		a.TargetsCreated != 3 || a.IntraTime != 150 || a.InterTime != 7 {
		t.Fatalf("mergeStats wrong: %+v", a)
	}
}

// TestLargeScaleSmoke runs full discovery on substantially larger
// documents than the benchmarks use, as an overflow/robustness check
// (skipped in -short).
func TestLargeScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	au := xmlgen.DefaultAuction()
	au.Factor = 32
	ds := xmlgen.Auction(au)
	h, err := relation.Build(ds.Tree, ds.Schema, relation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := discoverCold(h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Tuples != h.TotalTuples() || len(res.FDs) == 0 {
		t.Fatalf("large run inconsistent: %+v, %d FDs", res.Stats, len(res.FDs))
	}
	for _, c := range ds.GroundTruth {
		if c.Key {
			continue
		}
		if !impliedFD(res, c.Class, c.LHS, c.RHS) {
			t.Errorf("ground truth lost at scale: %s", c)
		}
	}
}

// TestKeepConstantFDs checks the constant-column policy: an FD with
// an empty LHS is suppressed by default and reported with the flag.
func TestKeepConstantFDs(t *testing.T) {
	tree, err := datatreeParse(`
<db>
  <row><a>same</a><b>1</b></row>
  <row><a>same</a><b>2</b></row>
  <row><a>same</a><b>3</b></row>
</db>`)
	if err != nil {
		t.Fatal(err)
	}
	s := schemaParse("db: Rcd\n  row: SetOf Rcd\n    a: str\n    b: str")
	h, err := relation.Build(tree, s, relation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := discoverCold(h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, fd := range res.FDs {
		if len(fd.LHS) == 0 {
			t.Fatalf("constant FD reported without the flag: %s", fd)
		}
	}
	res, err = discoverCold(h, Options{KeepConstantFDs: true})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, fd := range res.FDs {
		if len(fd.LHS) == 0 && fd.RHS == "./a" {
			found = true
		}
	}
	if !found {
		t.Fatalf("constant column not reported with KeepConstantFDs: %v", res.FDs)
	}
}

// TestRedundancyParallelism pins the invariant the JSON writer relies
// on: Result.Redundancies[i].FD == Result.FDs[i].
func TestRedundancyParallelism(t *testing.T) {
	for _, ds := range []xmlgen.Dataset{
		xmlgen.Warehouse(xmlgen.DefaultWarehouse()),
		xmlgen.Mondial(xmlgen.DefaultMondial()),
	} {
		h, err := relation.Build(ds.Tree, ds.Schema, relation.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := discoverCold(h, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.FDs) != len(res.Redundancies) {
			t.Fatalf("%s: %d FDs vs %d redundancies", ds.Name, len(res.FDs), len(res.Redundancies))
		}
		for i := range res.FDs {
			if res.FDs[i].String() != res.Redundancies[i].FD.String() {
				t.Fatalf("%s: index %d mismatch: %s vs %s", ds.Name, i, res.FDs[i], res.Redundancies[i].FD)
			}
		}
	}
}

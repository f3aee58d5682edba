package recovery

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/exec"
	"repro/internal/faults"
	"repro/internal/relation"
	"repro/internal/strategy"
)

// newBoundedFixture is the recovery fixture with change batches scaled up
// until the one transient build of its window — the second delta of
// Comp(J,{R,S})'s two-delta term; the states are read through resident
// indexes and build nothing — exceeds a 4 KiB window budget, so every
// incremental attempt must spill.
func newBoundedFixture(t *testing.T) (*core.Warehouse, strategy.Strategy) {
	t.Helper()
	w := core.New(core.Options{MemoryBudgetBytes: 4096})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.DefineBase("R", schemaR))
	must(w.DefineBase("S", schemaS))
	jb := algebra.NewBuilder().From("r", "R", schemaR).From("s", "S", schemaS)
	jb.Join("r.b", "s.b").SelectCol("r.a").SelectCol("s.c")
	must(w.DefineDerived("J", jb.MustBuild()))
	js := w.MustView("J").Schema()
	ab := algebra.NewBuilder().From("j", "J", js)
	ab.GroupByCol("j.a").Agg("total", delta.AggSum, ab.Col("j.c"))
	must(w.DefineDerived("A", ab.MustBuild()))
	var rRows, sRows []relation.Tuple
	for i := int64(0); i < 120; i++ {
		rRows = append(rRows, intRow(i, i%10))
		sRows = append(sRows, intRow(i%10, i*3))
	}
	must(w.LoadBase("R", rRows))
	must(w.LoadBase("S", sRows))
	must(w.RefreshAll())

	dr := delta.New(schemaR)
	dr.Add(intRow(1000, 3), 1)
	dr.Add(intRow(1, 1), -1)
	ds := delta.New(schemaS)
	ds.Add(intRow(3, 555), 1)
	for i := int64(0); i < 120; i++ {
		dr.Add(intRow(2000+i, 2000+i), 1)
		ds.Add(intRow(2000+i, i), 1)
	}
	must(w.StageDelta("R", dr))
	must(w.StageDelta("S", ds))

	g, err := exec.Graph(w)
	if err != nil {
		t.Fatal(err)
	}
	return w, strategy.DualStageVDAG(g)
}

// TestSpillFaultTransientRetry: a single failed spill write is transient —
// the attempt aborts and the ladder's first in-place retry (whose spill
// succeeds) commits.
func TestSpillFaultTransientRetry(t *testing.T) {
	w, s := newBoundedFixture(t)
	want := refRun(t, w, s)
	inj := faults.New(1)
	inj.FailAt("spill-write", 1)
	res, err := Run(w, s, Options{Mode: exec.ModeSequential, Validate: true, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 2 || res.FellBackSequential || res.Recomputed {
		t.Fatalf("spill fault should cost one retry, nothing more: %+v", res)
	}
	var spills int
	for _, step := range res.Report.Steps {
		spills += step.SpillCount
	}
	if spills == 0 {
		t.Fatal("bounded fixture never spilled — the fault cannot have been on the spill path")
	}
	sameBags(t, "retried spilling window", want, bags(t, res.Core))
}

// TestSpillFaultDegradationLadder: when spilling fails persistently, the DAG
// attempt dies, the sequential fallback (which also needs to spill) dies, and
// the recompute rung — which rebuilds from scratch without bulk join state,
// so never touches the spill path — completes the window with the right
// answer. Spill → sequential → recompute, end to end.
func TestSpillFaultDegradationLadder(t *testing.T) {
	w, s := newBoundedFixture(t)
	want := refRun(t, w, s)
	inj := faults.New(1)
	inj.SetProbability("spill-write", 1) // every spill write fails, every attempt
	res, err := Run(w, s, Options{Mode: exec.ModeDAG, Workers: 4, Validate: true, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FellBackSequential {
		t.Fatalf("DAG attempt did not fall back to sequential: %+v", res)
	}
	if !res.Recomputed || res.Mode != exec.ModeRecompute {
		t.Fatalf("sequential attempt did not fall back to recompute: %+v", res)
	}
	sameBags(t, "recomputed window", want, bags(t, res.Core))
	if err := res.Core.VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

package exec

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/relation"
	"repro/internal/strategy"
)

var (
	schemaR = relation.Schema{{Name: "a", Kind: relation.KindInt}, {Name: "b", Kind: relation.KindInt}}
	schemaS = relation.Schema{{Name: "b", Kind: relation.KindInt}, {Name: "c", Kind: relation.KindInt}}
)

func intRow(vals ...int64) relation.Tuple {
	t := make(relation.Tuple, len(vals))
	for i, v := range vals {
		t[i] = relation.NewInt(v)
	}
	return t
}

// newWarehouse builds R, S, J = R⋈S, A = γ(J) and loads deterministic data.
func newWarehouse(t *testing.T, rng *rand.Rand) *core.Warehouse {
	t.Helper()
	w := core.New(core.Options{})
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
	j := jb.MustBuild()
	must(w.DefineDerived("J", j))
	ab := algebra.NewBuilder().From("j", "J", j.OutputSchema())
	ab.GroupByCol("j.a").Agg("total", delta.AggSum, ab.Col("j.c"))
	must(w.DefineDerived("A", ab.MustBuild()))

	var rRows, sRows []relation.Tuple
	for i := 0; i < 40; i++ {
		rRows = append(rRows, intRow(rng.Int63n(8), rng.Int63n(5)*10))
		sRows = append(sRows, intRow(rng.Int63n(5)*10, rng.Int63n(6)*100))
	}
	must(w.LoadBase("R", rRows))
	must(w.LoadBase("S", sRows))
	must(w.RefreshAll())
	return w
}

func stageRandomChanges(t *testing.T, w *core.Warehouse, rng *rand.Rand) {
	t.Helper()
	for _, base := range []string{"R", "S"} {
		d := delta.New(w.MustView(base).Schema())
		for _, r := range w.MustView(base).SortedRows() {
			if rng.Intn(4) == 0 {
				d.Add(r.Tuple, -1)
			}
		}
		for i := 0; i < rng.Intn(4); i++ {
			d.Add(intRow(rng.Int63n(8), rng.Int63n(5)*10), 1)
		}
		if err := w.StageDelta(base, d); err != nil {
			t.Fatal(err)
		}
	}
}

func oneWayStrategy() strategy.Strategy {
	return strategy.Strategy{
		strategy.Comp{View: "J", Over: []string{"R"}}, strategy.Inst{View: "R"},
		strategy.Comp{View: "J", Over: []string{"S"}}, strategy.Inst{View: "S"},
		strategy.Comp{View: "A", Over: []string{"J"}}, strategy.Inst{View: "J"},
		strategy.Inst{View: "A"},
	}
}

func TestExecuteOneWay(t *testing.T) {
	w := newWarehouse(t, rand.New(rand.NewSource(1)))
	stageRandomChanges(t, w, rand.New(rand.NewSource(2)))
	rep, err := Execute(w, oneWayStrategy(), Options{Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.VerifyAll(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Steps) != 7 {
		t.Errorf("steps = %d", len(rep.Steps))
	}
	if rep.CompWork <= 0 || rep.InstWork <= 0 {
		t.Errorf("work not measured: %s", rep)
	}
	if rep.TotalWork() != rep.CompWork+rep.InstWork {
		t.Errorf("TotalWork inconsistent")
	}
	if !strings.Contains(rep.String(), "work=") {
		t.Errorf("String = %q", rep.String())
	}
}

func TestExecuteValidateRefusesIncorrect(t *testing.T) {
	w := newWarehouse(t, rand.New(rand.NewSource(3)))
	stageRandomChanges(t, w, rand.New(rand.NewSource(4)))
	// Install R before its changes are propagated to J: violates C3.
	bad := strategy.Strategy{
		strategy.Inst{View: "R"},
		strategy.Comp{View: "J", Over: []string{"R", "S"}},
		strategy.Comp{View: "A", Over: []string{"J"}},
		strategy.Inst{View: "S"}, strategy.Inst{View: "J"}, strategy.Inst{View: "A"},
	}
	if _, err := Execute(w, bad, Options{Validate: true}); err == nil {
		t.Fatal("incorrect strategy accepted")
	}
	// Unvalidated execution surfaces runtime errors instead.
	if _, err := Execute(w, strategy.Strategy{strategy.Comp{View: "nope", Over: []string{"R"}}}, Options{}); err == nil {
		t.Errorf("unknown view accepted")
	}
}

// TestRunStepSkipsEmptyDeltas: with the footnote-5 option on, a Comp over a
// quiet view is skipped with zero work while a Comp over a changed one runs.
// (It took the place of the Prepared-procedure tests: Prepared was a second
// executor loop; what it checked beyond this — work equal to Execute's — is
// TestExecuteOneWay and trial.Run's assertion (ii), the cost model over exact
// statistics equal to every step's measured Work, which TestTrials runs.)
func TestRunStepSkipsEmptyDeltas(t *testing.T) {
	w := newWarehouse(t, rand.New(rand.NewSource(31)))
	w.SetOptions(core.Options{SkipEmptyDeltas: true})
	// Stage changes on R only; S stays quiet.
	d := delta.New(schemaR)
	d.Add(intRow(7, 10), 1)
	if err := w.StageDelta("R", d); err != nil {
		t.Fatal(err)
	}
	stepR, err := RunStep(nil, w, strategy.Comp{View: "J", Over: []string{"R"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stepR.Skipped || stepR.Work == 0 {
		t.Errorf("comp over changed R should run: %+v", stepR)
	}
	if _, err := RunStep(nil, w, strategy.Inst{View: "R"}, nil); err != nil {
		t.Fatal(err)
	}
	stepS, err := RunStep(nil, w, strategy.Comp{View: "J", Over: []string{"S"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !stepS.Skipped || stepS.Work != 0 {
		t.Errorf("comp over quiet S should be skipped: %+v", stepS)
	}
	// Finish the window and verify.
	rest := strategy.Strategy{
		strategy.Inst{View: "S"},
		strategy.Comp{View: "A", Over: []string{"J"}},
		strategy.Inst{View: "J"},
		strategy.Inst{View: "A"},
	}
	if _, err := Execute(w, rest, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := w.VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

func TestPlanningStats(t *testing.T) {
	w := newWarehouse(t, rand.New(rand.NewSource(8)))
	stageRandomChanges(t, w, rand.New(rand.NewSource(9)))
	stats, err := PlanningStats(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"R", "S", "J", "A"} {
		if _, ok := stats[v]; !ok {
			t.Fatalf("missing stats for %s", v)
		}
	}
	// Base deltas must be exact.
	dR, _ := w.DeltaOf("R")
	if stats["R"].DeltaPlus != dR.PlusCount() || stats["R"].DeltaMinus != dR.MinusCount() {
		t.Errorf("base delta stats inexact")
	}
	if stats["J"].Size != w.MustView("J").Cardinality() {
		t.Errorf("J size wrong")
	}
	// Derived deltas estimated, plausibly bounded.
	if stats["J"].DeltaMinus < 0 || stats["J"].DeltaMinus > stats["J"].Size {
		t.Errorf("J delta estimate out of range: %+v", stats["J"])
	}
}

func TestRefCountsAndGraph(t *testing.T) {
	w := newWarehouse(t, rand.New(rand.NewSource(10)))
	rc := RefCounts(w)
	if rc["J"]["R"] != 1 || rc["J"]["S"] != 1 || rc["A"]["J"] != 1 {
		t.Errorf("RefCounts = %v", rc)
	}
	if _, ok := rc["R"]; ok {
		t.Errorf("base view should have no ref counts")
	}
	g := w.Graph()
	if !g.IsTree() || g.Level("A") != 2 {
		t.Errorf("graph misderived: %s", g)
	}
}

func TestExactStatsErrors(t *testing.T) {
	w := newWarehouse(t, rand.New(rand.NewSource(11)))
	other := core.New(core.Options{})
	if _, err := ExactStats(w, other); err == nil {
		t.Errorf("missing view accepted")
	}
}

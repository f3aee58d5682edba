package core

import (
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/delta"
	"repro/internal/relation"
)

// TestSelfJoinMaintenance exercises the per-reference term expansion: a view
// defined over the same base twice (pairs of rows sharing b) must maintain
// correctly through both 1-way and dual-stage strategies.
func TestSelfJoinMaintenance(t *testing.T) {
	build := func() *Warehouse {
		w := New(Options{})
		if err := w.DefineBase("R", schemaR); err != nil {
			t.Fatal(err)
		}
		b := algebra.NewBuilder().From("x", "R", schemaR).From("y", "R", schemaR)
		b.Join("x.b", "y.b").
			Where(&algebra.Binary{Op: algebra.OpLt, L: b.Col("x.a"), R: b.Col("y.a")}).
			SelectCol("x.a", "left").SelectCol("y.a", "right")
		if err := w.DefineDerived("PAIRS", b.MustBuild()); err != nil {
			t.Fatal(err)
		}
		if err := w.LoadBase("R", []relation.Tuple{
			intRow(1, 10), intRow(2, 10), intRow(3, 10), intRow(4, 20), intRow(5, 20),
		}); err != nil {
			t.Fatal(err)
		}
		if err := w.RefreshAll(); err != nil {
			t.Fatal(err)
		}
		return w
	}
	w := build()
	// pairs sharing b: (1,2),(1,3),(2,3),(4,5)
	if got := w.MustView("PAIRS").Cardinality(); got != 4 {
		t.Fatalf("|PAIRS| = %d, want 4", got)
	}
	stage(t, w, "R", []delta.Change{
		{Tuple: intRow(2, 10), Count: -1}, // removes (1,2),(2,3)
		{Tuple: intRow(6, 20), Count: 1},  // adds (4,6),(5,6)
	})
	// Comp(PAIRS,{R}) must expand to 2²−1 = 3 terms.
	rep, err := w.Compute("PAIRS", []string{"R"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Terms != 3 {
		t.Errorf("self-join terms = %d, want 3", rep.Terms)
	}
	if _, _, err := w.Install("R"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Install("PAIRS"); err != nil {
		t.Fatal(err)
	}
	if err := w.VerifyAll(); err != nil {
		t.Fatal(err)
	}
	rows := w.MustView("PAIRS").SortedRows()
	want := []string{"(1, 3)", "(4, 5)", "(4, 6)", "(5, 6)"}
	if len(rows) != len(want) {
		t.Fatalf("PAIRS = %v", rows)
	}
	for i, wnt := range want {
		if rows[i].Tuple.String() != wnt {
			t.Errorf("PAIRS[%d] = %v, want %s", i, rows[i].Tuple, wnt)
		}
	}
}

// newDeepWarehouse builds a 4-level chain exercising every view kind:
// base R → SPJ J → aggregate A (per key) → aggregate ROLL (global rollup),
// plus an SPJ view OVER_A defined over the aggregate A.
func newDeepWarehouse(t *testing.T) *Warehouse {
	t.Helper()
	w := New(Options{})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.DefineBase("R", schemaR))
	jb := algebra.NewBuilder().From("r", "R", schemaR)
	jb.Where(&algebra.Binary{Op: algebra.OpGt, L: jb.Col("r.b"), R: &algebra.Const{Value: relation.NewInt(0)}}).
		SelectCol("r.a").SelectCol("r.b")
	jDef := jb.MustBuild()
	must(w.DefineDerived("J", jDef))

	ab := algebra.NewBuilder().From("j", "J", jDef.OutputSchema())
	ab.GroupByCol("j.a").
		Agg("total", delta.AggSum, ab.Col("j.b")).
		Agg("n", delta.AggCount, nil)
	aDef := ab.MustBuild()
	must(w.DefineDerived("A", aDef))

	// Aggregate over aggregate: roll A's totals up into buckets of n.
	rb := algebra.NewBuilder().From("a", "A", aDef.OutputSchema())
	rb.GroupByCol("a.n").
		Agg("grand", delta.AggSum, rb.Col("a.total")).
		Agg("groups", delta.AggCount, nil)
	must(w.DefineDerived("ROLL", rb.MustBuild()))

	// SPJ over aggregate: the keys with large totals.
	ob := algebra.NewBuilder().From("a", "A", aDef.OutputSchema())
	ob.Where(&algebra.Binary{Op: algebra.OpGe, L: ob.Col("a.total"), R: &algebra.Const{Value: relation.NewInt(50)}}).
		SelectCol("a.a").SelectCol("a.total")
	must(w.DefineDerived("OVER_A", ob.MustBuild()))
	return w
}

// deepStrategy is a correct 1-way strategy for the 4-level warehouse.
func deepStrategy(t *testing.T, w *Warehouse) {
	t.Helper()
	steps := []string{"cJ.R", "iR", "cA.J", "iJ", "cROLL.A", "cOVER_A.A", "iA", "iROLL", "iOVER_A"}
	for _, s := range steps {
		applyStep(t, w, s)
	}
}

func TestDeepWarehouseMultiLevelPropagation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		w := newDeepWarehouse(t)
		var rows []relation.Tuple
		for i := 0; i < 30; i++ {
			rows = append(rows, intRow(rng.Int63n(5), rng.Int63n(40)))
		}
		if err := w.LoadBase("R", rows); err != nil {
			t.Fatal(err)
		}
		if err := w.RefreshAll(); err != nil {
			t.Fatal(err)
		}
		// Random change batch.
		d := delta.New(schemaR)
		for _, r := range w.MustView("R").SortedRows() {
			if rng.Intn(3) == 0 {
				d.Add(r.Tuple, -1)
			}
		}
		for i := 0; i < rng.Intn(6); i++ {
			d.Add(intRow(rng.Int63n(5), rng.Int63n(40)), 1)
		}
		if err := w.StageDelta("R", d); err != nil {
			t.Fatal(err)
		}
		deepStrategy(t, w)
		if err := w.VerifyAll(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestAggOverAggDeltaShape checks the tuple-level delta produced by an
// aggregate view feeding another aggregate: the parent must see minus(old
// group row) / plus(new group row) pairs.
func TestAggOverAggDeltaShape(t *testing.T) {
	w := newDeepWarehouse(t)
	if err := w.LoadBase("R", []relation.Tuple{intRow(1, 10), intRow(1, 20), intRow(2, 30)}); err != nil {
		t.Fatal(err)
	}
	if err := w.RefreshAll(); err != nil {
		t.Fatal(err)
	}
	// A = {(1,30,2),(2,30,1)}; ROLL = {(2,30,1),(1,30,1)} keyed by n.
	stage(t, w, "R", []delta.Change{{Tuple: intRow(1, 20), Count: -1}})
	for _, s := range []string{"cJ.R", "iR", "cA.J", "iJ"} {
		applyStep(t, w, s)
	}
	dA, err := w.DeltaOf("A")
	if err != nil {
		t.Fatal(err)
	}
	// Group 1 changes from (1,30,2) to (1,10,1): one minus + one plus.
	ch := dA.Sorted()
	if len(ch) != 2 || dA.PlusCount() != 1 || dA.MinusCount() != 1 {
		t.Fatalf("δA = %v", ch)
	}
	if ch[0].Tuple.String() != "(1, 10, 1)" || ch[0].Count != 1 {
		t.Errorf("plus row = %v", ch[0])
	}
	if ch[1].Tuple.String() != "(1, 30, 2)" || ch[1].Count != -1 {
		t.Errorf("minus row = %v", ch[1])
	}
	for _, s := range []string{"cROLL.A", "cOVER_A.A", "iA", "iROLL", "iOVER_A"} {
		applyStep(t, w, s)
	}
	if err := w.VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

// TestDistinctViewMaintenance: a DISTINCT projection must keep a row until
// its last duplicate disappears.
func TestDistinctViewMaintenance(t *testing.T) {
	w := New(Options{})
	if err := w.DefineBase("R", schemaR); err != nil {
		t.Fatal(err)
	}
	b := algebra.NewBuilder().From("r", "R", schemaR)
	b.SelectCol("r.b").Distinct()
	if err := w.DefineDerived("D", b.MustBuild()); err != nil {
		t.Fatal(err)
	}
	if err := w.LoadBase("R", []relation.Tuple{intRow(1, 10), intRow(2, 10), intRow(3, 20)}); err != nil {
		t.Fatal(err)
	}
	if err := w.RefreshAll(); err != nil {
		t.Fatal(err)
	}
	if got := w.MustView("D").Cardinality(); got != 2 {
		t.Fatalf("|D| = %d, want 2", got)
	}
	// Remove one of the two b=10 rows: D unchanged.
	stage(t, w, "R", []delta.Change{{Tuple: intRow(1, 10), Count: -1}})
	if _, err := w.Compute("D", []string{"R"}); err != nil {
		t.Fatal(err)
	}
	dD, err := w.DeltaOf("D")
	if err != nil {
		t.Fatal(err)
	}
	if !dD.IsEmpty() {
		t.Errorf("removing a duplicate should not change DISTINCT view: %v", dD.Sorted())
	}
	for _, s := range []string{"iR", "iD"} {
		applyStep(t, w, s)
	}
	// Remove the last b=10 row: now the distinct row disappears.
	stage(t, w, "R", []delta.Change{{Tuple: intRow(2, 10), Count: -1}})
	for _, s := range []string{"cD.R", "iR", "iD"} {
		applyStep(t, w, s)
	}
	rows := w.MustView("D").SortedRows()
	if len(rows) != 1 || rows[0].Tuple.String() != "(20)" {
		t.Errorf("D = %v", rows)
	}
	if err := w.VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

// TestMinMaxViewThroughStrategies: MIN/MAX aggregates survive deletions of
// the current extreme through an incremental strategy.
func TestMinMaxViewThroughStrategies(t *testing.T) {
	w := New(Options{})
	if err := w.DefineBase("R", schemaR); err != nil {
		t.Fatal(err)
	}
	b := algebra.NewBuilder().From("r", "R", schemaR)
	b.GroupByCol("r.a").
		Agg("lo", delta.AggMin, b.Col("r.b")).
		Agg("hi", delta.AggMax, b.Col("r.b"))
	if err := w.DefineDerived("EXTREMES", b.MustBuild()); err != nil {
		t.Fatal(err)
	}
	if err := w.LoadBase("R", []relation.Tuple{
		intRow(1, 5), intRow(1, 9), intRow(1, 2), intRow(2, 7),
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.RefreshAll(); err != nil {
		t.Fatal(err)
	}
	// Delete group 1's min (2) and max (9) in one batch.
	stage(t, w, "R", []delta.Change{
		{Tuple: intRow(1, 2), Count: -1},
		{Tuple: intRow(1, 9), Count: -1},
	})
	for _, s := range []string{"cEXTREMES.R", "iR", "iEXTREMES"} {
		applyStep(t, w, s)
	}
	rows := w.MustView("EXTREMES").SortedRows()
	if len(rows) != 2 || rows[0].Tuple.String() != "(1, 5, 5)" || rows[1].Tuple.String() != "(2, 7, 7)" {
		t.Fatalf("EXTREMES = %v", rows)
	}
	if err := w.VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

// TestCrossProductView: a definition with no equi-join predicate exercises
// the evaluator's cross-product fallback.
func TestCrossProductView(t *testing.T) {
	w := New(Options{})
	if err := w.DefineBase("R", schemaR); err != nil {
		t.Fatal(err)
	}
	if err := w.DefineBase("S", schemaS); err != nil {
		t.Fatal(err)
	}
	b := algebra.NewBuilder().From("r", "R", schemaR).From("s", "S", schemaS)
	// Non-equi join: r.b < s.c (residual only).
	b.Where(&algebra.Binary{Op: algebra.OpLt, L: b.Col("r.b"), R: b.Col("s.c")}).
		SelectCol("r.a").SelectCol("s.c")
	if err := w.DefineDerived("X", b.MustBuild()); err != nil {
		t.Fatal(err)
	}
	if err := w.LoadBase("R", []relation.Tuple{intRow(1, 10), intRow(2, 300)}); err != nil {
		t.Fatal(err)
	}
	if err := w.LoadBase("S", []relation.Tuple{intRow(0, 100), intRow(0, 400)}); err != nil {
		t.Fatal(err)
	}
	if err := w.RefreshAll(); err != nil {
		t.Fatal(err)
	}
	// (1,100),(1,400),(2,400)
	if got := w.MustView("X").Cardinality(); got != 3 {
		t.Fatalf("|X| = %d, want 3", got)
	}
	stage(t, w, "S", []delta.Change{{Tuple: intRow(0, 100), Count: -1}, {Tuple: intRow(9, 350), Count: 1}})
	for _, s := range []string{"cX.S", "iS", "iX"} {
		applyStep(t, w, s)
	}
	if err := w.VerifyAll(); err != nil {
		t.Fatal(err)
	}
	rows := w.MustView("X").SortedRows()
	want := []string{"(1, 350)", "(1, 400)", "(2, 350)", "(2, 400)"}
	if len(rows) != len(want) {
		t.Fatalf("X = %v", rows)
	}
	for i, wnt := range want {
		if rows[i].Tuple.String() != wnt {
			t.Errorf("X[%d] = %v, want %s", i, rows[i].Tuple, wnt)
		}
	}
}

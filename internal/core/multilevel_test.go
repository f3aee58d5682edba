package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

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
		defineSQL(t, w, "PAIRS", "SELECT x.a AS left, y.a AS right FROM R x, R y WHERE x.b = y.b AND x.a < y.a")
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
	rep, err := w.ComputeCtx(nil, "PAIRS", []string{"R"})
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
	defineSQL(t, w, "J", "SELECT r.a, r.b FROM R r WHERE r.b > 0")
	defineSQL(t, w, "A", "SELECT j.a, SUM(j.b) AS total, COUNT(*) AS n FROM J j GROUP BY j.a")
	// Aggregate over aggregate: roll A's totals up into buckets of n.
	defineSQL(t, w, "ROLL", "SELECT a.n, SUM(a.total) AS grand, COUNT(*) AS groups FROM A a GROUP BY a.n")
	// SPJ over aggregate: the keys with large totals.
	defineSQL(t, w, "OVER_A", "SELECT a.a, a.total FROM A a WHERE a.total >= 50")
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
// group row) / plus(new group row) pairs. The Comps of A's two parents run
// at once, as DAG workers run them, beside a reader of A's state: the first
// to read δA builds it on a clone of A's store, the other reads the same δA,
// and the reader sees A's old rows. Run under -race.
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
	var wg sync.WaitGroup
	for _, parent := range []string{"ROLL", "OVER_A"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := w.ComputeCtx(nil, parent, []string{"A"}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if rows := fmt.Sprint(w.MustView("A").SortedRows()); rows != "[{(1, 30, 2) 1} {(2, 30, 1) 1}]" {
			t.Errorf("A read beside its δ's build = %s", rows)
		}
	}()
	wg.Wait()
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
	for _, s := range []string{"iA", "iROLL", "iOVER_A"} {
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
	defineSQL(t, w, "D", "SELECT DISTINCT r.b FROM R r")
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
	if _, err := w.ComputeCtx(nil, "D", []string{"R"}); err != nil {
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
	defineSQL(t, w, "EXTREMES", "SELECT r.a, MIN(r.b) AS lo, MAX(r.b) AS hi FROM R r GROUP BY r.a")
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
	// Non-equi join: r.b < s.c (residual only).
	defineSQL(t, w, "X", "SELECT r.a, s.c FROM R r, S s WHERE r.b < s.c")
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

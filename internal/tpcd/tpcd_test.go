package tpcd

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/planner"
	"repro/internal/strategy"
)

func smallWarehouse(t *testing.T) *Warehouse {
	t.Helper()
	tw, err := NewWarehouse(Config{SF: 0.001, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return tw
}

func TestNewWarehouseShape(t *testing.T) {
	tw := smallWarehouse(t)
	w := tw.W
	counts := RowCounts(0.001)
	for _, v := range []string{Region, Nation} {
		if got := w.MustView(v).Cardinality(); got != int64(counts[v]) {
			t.Errorf("|%s| = %d, want %d", v, got, counts[v])
		}
	}
	if got := w.MustView(Supplier).Cardinality(); got != 10 {
		t.Errorf("|SUPPLIER| = %d, want 10", got)
	}
	if got := w.MustView(Customer).Cardinality(); got != 150 {
		t.Errorf("|CUSTOMER| = %d, want 150", got)
	}
	if got := w.MustView(Order).Cardinality(); got != 1500 {
		t.Errorf("|ORDER| = %d, want 1500", got)
	}
	li := w.MustView(LineItem).Cardinality()
	if li < 5000 || li > 6000 {
		t.Errorf("|LINEITEM| = %d, want ≈6000 (capped)", li)
	}
	// The summary views must be non-empty (filters hit data).
	for _, q := range DerivedViews {
		if w.MustView(q).Cardinality() == 0 {
			t.Errorf("%s is empty — filters select nothing", q)
		}
	}
	// Level structure of Figure 4: uniform VDAG, one level of summaries.
	if !tw.Graph.IsUniform() || tw.Graph.IsTree() {
		t.Errorf("TPC-D VDAG must be uniform and not a tree")
	}
	if tw.Graph.MaxLevel() != 1 {
		t.Errorf("MaxLevel = %d", tw.Graph.MaxLevel())
	}
	if got := len(tw.Graph.ViewsWithParents()); got != 6 {
		t.Errorf("views with parents = %d, want 6 (the m! optimization)", got)
	}
}

func TestDeterminism(t *testing.T) {
	a := smallWarehouse(t)
	b := smallWarehouse(t)
	for _, v := range append(append([]string{}, BaseViews...), DerivedViews...) {
		ra, rb := a.W.MustView(v).SortedRows(), b.W.MustView(v).SortedRows()
		if len(ra) != len(rb) {
			t.Fatalf("%s: %d vs %d rows across identical seeds", v, len(ra), len(rb))
		}
	}
	// Different seed differs somewhere.
	c, err := NewWarehouse(Config{SF: 0.001, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if c.W.MustView(Q5).Cardinality() == 0 {
		t.Errorf("Q5 empty under different seed")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewWarehouse(Config{SF: 0}); err == nil {
		t.Errorf("zero SF accepted")
	}
	if _, err := NewWarehouse(Config{SF: -1}); err == nil {
		t.Errorf("negative SF accepted")
	}
}

func TestStageChangesUniformDecrease(t *testing.T) {
	tw := smallWarehouse(t)
	sizes, err := tw.StageChanges(UniformDecrease(0.10))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sizes[Region]; ok {
		t.Errorf("REGION should be unchanged")
	}
	for _, v := range []string{Customer, Order, LineItem, Supplier, Nation} {
		card := tw.W.MustView(v).Cardinality()
		want := int64(float64(card) * 0.10)
		if sizes[v] != want {
			t.Errorf("δ%s = %d, want %d", v, sizes[v], want)
		}
		d, err := tw.W.DeltaOf(v)
		if err != nil {
			t.Fatal(err)
		}
		if d.PlusCount() != 0 || d.MinusCount() != want {
			t.Errorf("δ%s composition +%d −%d", v, d.PlusCount(), d.MinusCount())
		}
	}
}

func TestStageChangesMixed(t *testing.T) {
	tw := smallWarehouse(t)
	if _, err := tw.StageChanges(Mixed(0.05, 0.08)); err != nil {
		t.Fatal(err)
	}
	d, err := tw.W.DeltaOf(Customer)
	if err != nil {
		t.Fatal(err)
	}
	if d.MinusCount() == 0 || d.PlusCount() == 0 {
		t.Errorf("mixed changes missing a side: +%d −%d", d.PlusCount(), d.MinusCount())
	}
}

func TestStageChangesValidation(t *testing.T) {
	tw := smallWarehouse(t)
	if _, err := tw.StageChanges(ChangeSpec{DeleteFrac: map[string]float64{Customer: 1.5}}); err == nil {
		t.Errorf("fraction > 1 accepted")
	}
	if _, err := tw.StageChanges(ChangeSpec{InsertFrac: map[string]float64{Customer: -1}}); err == nil {
		t.Errorf("negative insert fraction accepted")
	}
}

// TestDeepVDAG exercises the second-level summaries: the VDAG becomes deep
// and non-uniform, MinWork still plans correctly (falling back to
// ModifyOrdering when the desired ordering yields a cyclic EG), and the
// whole stack verifies against recomputation.
func TestDeepVDAG(t *testing.T) {
	tw, err := NewWarehouse(Config{SF: 0.001, Seed: 42, DeepVDAG: true})
	if err != nil {
		t.Fatal(err)
	}
	g := tw.Graph
	if g.IsUniform() {
		t.Errorf("deep VDAG should not be uniform (NATION_REVENUE spans levels 0 and 1)")
	}
	if g.Level(Q3ByPriority) != 2 || g.Level(NationRevenue) != 2 {
		t.Errorf("levels: %d %d", g.Level(Q3ByPriority), g.Level(NationRevenue))
	}
	if tw.W.MustView(Q3ByPriority).Cardinality() == 0 {
		t.Errorf("Q3_BY_PRIORITY empty")
	}
	if tw.W.MustView(NationRevenue).Cardinality() == 0 {
		t.Errorf("NATION_REVENUE empty")
	}
	if _, err := tw.StageChanges(Mixed(0.07, 0.04)); err != nil {
		t.Fatal(err)
	}
	stats, err := exec.PlanningStats(tw.W)
	if err != nil {
		t.Fatal(err)
	}
	res, err := planner.MinWork(tw.Graph, stats)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Execute(tw.W, res.Strategy, exec.Options{Validate: true}); err != nil {
		t.Fatal(err)
	}
	if err := tw.W.VerifyAll(); err != nil {
		t.Fatal(err)
	}
	// DeepVDAG with a query subset is rejected.
	if _, err := NewWarehouse(Config{SF: 0.001, DeepVDAG: true, Queries: []string{Q3}}); err == nil {
		t.Errorf("DeepVDAG with subset accepted")
	}
}

// TestFullUpdateWindow runs MinWork end-to-end on the TPC-D warehouse and
// verifies the final state against recomputation — the paper's Experiment 4
// setting at miniature scale.
func TestFullUpdateWindow(t *testing.T) {
	tw := smallWarehouse(t)
	if _, err := tw.StageChanges(UniformDecrease(0.10)); err != nil {
		t.Fatal(err)
	}
	stats, err := exec.PlanningStats(tw.W)
	if err != nil {
		t.Fatal(err)
	}
	res, err := planner.MinWork(tw.Graph, stats)
	if err != nil {
		t.Fatal(err)
	}
	if res.Modified {
		t.Errorf("uniform VDAG should not need ModifyOrdering")
	}
	// The desired ordering under a uniform fractional decrease follows
	// decreasing view size (the biggest view shrinks the most). At SF 0.001
	// SUPPLIER (10 rows) is smaller than NATION (25), so NATION precedes
	// SUPPLIER; at the paper's full scale the order is L, O, C, S, N, R.
	want := []string{LineItem, Order, Customer, Nation, Supplier, Region}
	for i, v := range want {
		if res.DesiredOrdering[i] != v {
			t.Fatalf("desired ordering = %v, want %v", res.DesiredOrdering, want)
		}
	}
	rep, err := exec.Execute(tw.W, res.Strategy, exec.Options{Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalWork() == 0 {
		t.Errorf("no work measured")
	}
	if err := tw.W.VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

// TestDualStageAndMinWorkAgree checks that two very different correct
// strategies produce identical final states on TPC-D data.
func TestDualStageAndMinWorkAgree(t *testing.T) {
	tw := smallWarehouse(t)
	if _, err := tw.StageChanges(Mixed(0.08, 0.05)); err != nil {
		t.Fatal(err)
	}
	stats, err := exec.PlanningStats(tw.W)
	if err != nil {
		t.Fatal(err)
	}
	res, err := planner.MinWork(tw.Graph, stats)
	if err != nil {
		t.Fatal(err)
	}
	mw := tw.W.Clone()
	if _, err := exec.Execute(mw, res.Strategy, exec.Options{Validate: true}); err != nil {
		t.Fatal(err)
	}
	ds := tw.W.Clone()
	if _, err := exec.Execute(ds, strategy.DualStageVDAG(tw.Graph), exec.Options{Validate: true}); err != nil {
		t.Fatal(err)
	}
	for _, q := range DerivedViews {
		a, b := mw.MustView(q).SortedRows(), ds.MustView(q).SortedRows()
		if len(a) != len(b) {
			t.Fatalf("%s: MinWork %d rows vs dual-stage %d rows", q, len(a), len(b))
		}
	}
	if err := mw.VerifyAll(); err != nil {
		t.Fatal(err)
	}
	if err := ds.VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

// TestDefinitionsMatchTheHandBuiltRendering: the SQL texts parse to the
// definitions the views had when they were assembled by hand with
// algebra.Builder. testdata/definitions.golden holds that rendering — each
// view's String() and OutputSchema() — computed from the hand-built
// definitions before they were deleted; it is not regenerated.
func TestDefinitionsMatchTheHandBuiltRendering(t *testing.T) {
	want, err := os.ReadFile("testdata/definitions.golden")
	if err != nil {
		t.Fatal(err)
	}
	defs := Definitions()
	defs[Q3ByPriority] = Q3ByPriorityDef()
	defs[NationRevenue] = NationRevenueDef()
	var got strings.Builder
	for _, name := range []string{Q3, Q5, Q10, Q3ByPriority, NationRevenue} {
		fmt.Fprintf(&got, "%s\n%s\n%s\n\n", name, defs[name], defs[name].OutputSchema())
	}
	if got.String() != string(want) {
		t.Fatalf("parsed definitions render\n%s\nthe hand-built ones rendered\n%s", got.String(), want)
	}
}

package warehouse

import (
	"strings"
	"testing"
)

// newRetail builds a small two-level warehouse entirely through the public
// API: SALES and STORES base views, a join view, and a summary view on top.
func newRetail(t *testing.T) *Warehouse {
	t.Helper()
	w := New()
	w.MustDefineBase("STORES", Schema{
		{Name: "store_id", Kind: KindInt},
		{Name: "region", Kind: KindString},
	})
	w.MustDefineBase("SALES", Schema{
		{Name: "sale_id", Kind: KindInt},
		{Name: "store_id", Kind: KindInt},
		{Name: "amount", Kind: KindFloat},
	})
	w.MustDefineViewSQL("SALES_BY_STORE", `
		SELECT s.sale_id, s.amount, st.region
		FROM SALES s, STORES st
		WHERE s.store_id = st.store_id`)
	w.MustDefineViewSQL("REGION_TOTALS", `
		SELECT region, SUM(amount) AS total, COUNT(*) AS n
		FROM SALES_BY_STORE GROUP BY region`)

	stores := []Tuple{
		{Int(1), String("west")},
		{Int(2), String("east")},
	}
	sales := []Tuple{
		{Int(100), Int(1), Float(10)},
		{Int(101), Int(1), Float(20)},
		{Int(102), Int(2), Float(5)},
	}
	if err := w.Load("STORES", stores); err != nil {
		t.Fatal(err)
	}
	if err := w.Load("SALES", sales); err != nil {
		t.Fatal(err)
	}
	if err := w.Refresh(); err != nil {
		t.Fatal(err)
	}
	return w
}

func stageSale(t *testing.T, w *Warehouse) {
	t.Helper()
	d, err := w.NewDelta("SALES")
	if err != nil {
		t.Fatal(err)
	}
	d.Add(Tuple{Int(103), Int(2), Float(50)}, 1)  // new sale in east
	d.Add(Tuple{Int(100), Int(1), Float(10)}, -1) // returned sale in west
	if err := w.StageDelta("SALES", d); err != nil {
		t.Fatal(err)
	}
}

// runIncremental runs one update window and fails unless it committed on its
// first, incremental attempt. The failure ladder would otherwise recompute
// every view past an incremental failure, and the state checks after the
// window would pass all the same.
func runIncremental(t *testing.T, w *Warehouse, o WindowOptions) WindowReport {
	t.Helper()
	win, err := w.RunWindowOpts(o)
	if err != nil {
		t.Fatalf("window (%s, %s): %v", o.Planner, o.Mode, err)
	}
	if win.Attempts != 1 || win.Recomputed || win.FellBackSequential {
		t.Fatalf("window (%s, %s) committed after %d attempts (recomputed %v, fell back to sequential %v), want the first, incremental one",
			o.Planner, o.Mode, win.Attempts, win.Recomputed, win.FellBackSequential)
	}
	return win
}

func TestPublicAPIEndToEnd(t *testing.T) {
	w := newRetail(t)
	rows, err := w.Rows("REGION_TOTALS")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("REGION_TOTALS = %v", rows)
	}
	if rows[0].Tuple.String() != "(east, 5, 1)" || rows[1].Tuple.String() != "(west, 30, 2)" {
		t.Errorf("rows = %v", rows)
	}
	stageSale(t, w)
	if got := w.Pending(); len(got) != 1 || got[0] != "SALES" {
		t.Errorf("Pending = %v", got)
	}
	win := runIncremental(t, w, WindowOptions{})
	if win.Plan.Modified {
		t.Errorf("tree warehouse should not need ModifyOrdering")
	}
	if win.Report.TotalWork() == 0 {
		t.Errorf("no work measured")
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
	rows, err = w.Rows("REGION_TOTALS")
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Tuple.String() != "(east, 55, 2)" || rows[1].Tuple.String() != "(west, 20, 1)" {
		t.Errorf("after update: %v", rows)
	}
}

func TestPlannersAgreeOnFinalState(t *testing.T) {
	base := newRetail(t)
	stageSale(t, base)
	var reference []CountedRow
	for _, name := range []PlannerName{MinWorkPlanner, PrunePlanner, DualStagePlanner} {
		w := base.Clone()
		p, err := w.Plan(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := w.Validate(p.Strategy); err != nil {
			t.Fatalf("%s: invalid plan: %v", name, err)
		}
		if win := runIncremental(t, w, WindowOptions{Planner: name}); win.Plan.Strategy.String() != p.Strategy.String() {
			t.Fatalf("%s: the window ran %s, the validated plan is %s", name, win.Plan.Strategy, p.Strategy)
		}
		if err := w.Verify(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rows, err := w.Rows("REGION_TOTALS")
		if err != nil {
			t.Fatal(err)
		}
		if reference == nil {
			reference = rows
			continue
		}
		if len(rows) != len(reference) {
			t.Fatalf("%s: %v vs %v", name, rows, reference)
		}
		for i := range rows {
			if rows[i].Tuple.String() != reference[i].Tuple.String() {
				t.Fatalf("%s: row %d: %v vs %v", name, i, rows[i], reference[i])
			}
		}
	}
}

func TestPlanMinWorkSingle(t *testing.T) {
	w := newRetail(t)
	stageSale(t, w)
	p, err := w.PlanMinWorkSingle("SALES_BY_STORE")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Ordering) != 2 {
		t.Errorf("ordering = %v", p.Ordering)
	}
	if _, err := w.PlanMinWorkSingle("SALES"); err == nil {
		t.Errorf("base view accepted")
	}
	if _, err := w.PlanMinWorkSingle("NO_SUCH_VIEW"); err == nil {
		t.Errorf("unknown view accepted") // it panicked while the catalog's children were looked up by MustView
	}
	// Executing just the single-view strategy leaves REGION_TOTALS stale;
	// validation must reject it since REGION_TOTALS' child changes.
	if err := w.Validate(p.Strategy); err == nil {
		t.Errorf("partial strategy accepted despite changed parent view")
	}
}

func TestEstimateWorkOrdersStrategies(t *testing.T) {
	w := newRetail(t)
	stageSale(t, w)
	mw, err := w.Plan(MinWorkPlanner)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := w.Plan(DualStagePlanner)
	if err != nil {
		t.Fatal(err)
	}
	wMW, err := w.EstimateWork(mw.Strategy)
	if err != nil {
		t.Fatal(err)
	}
	wDS, err := w.EstimateWork(ds.Strategy)
	if err != nil {
		t.Fatal(err)
	}
	if wMW > wDS {
		t.Errorf("MinWork estimate %v should not exceed dual-stage %v", wMW, wDS)
	}
}

func TestParallelFacade(t *testing.T) {
	w := newRetail(t)
	stageSale(t, w)
	ds, err := w.Plan(DualStagePlanner)
	if err != nil {
		t.Fatal(err)
	}
	plan := w.Parallelize(ds.Strategy)
	if len(plan) < 2 {
		t.Fatalf("plan = %s", plan)
	}
	win := runIncremental(t, w, WindowOptions{Planner: DualStagePlanner, Mode: ModeStaged})
	if sched := win.Report.Sched; win.Mode != ModeStaged || sched.TotalWork == 0 || sched.SpanWork == 0 || sched.Levels != len(plan) {
		t.Errorf("staged window of a %d-stage plan ran %s: %+v", len(plan), win.Mode, sched)
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeErrorsAndAccessors(t *testing.T) {
	w := New(Options{SkipEmptyDeltas: true})
	if err := w.DefineViewSQL("V", "SELECT x FROM NOPE"); err == nil {
		t.Errorf("view over unknown base accepted")
	}
	if _, err := w.NewDelta("NOPE"); err == nil {
		t.Errorf("NewDelta unknown view accepted")
	}
	if _, err := w.Rows("NOPE"); err == nil {
		t.Errorf("Rows unknown view accepted")
	}
	if _, err := w.Size("NOPE"); err == nil {
		t.Errorf("Size unknown view accepted")
	}
	if _, err := w.ViewSchema("NOPE"); err == nil {
		t.Errorf("ViewSchema unknown view accepted")
	}
	w.MustDefineBase("B", Schema{{Name: "x", Kind: KindInt}})
	name, err := w.DefineViewSQLStatement("CREATE VIEW V2 AS SELECT x FROM B")
	if err != nil || name != "V2" {
		t.Fatalf("CREATE VIEW: %q, %v", name, err)
	}
	if n, err := w.Size("B"); err != nil || n != 0 {
		t.Errorf("Size(B) = %d, %v", n, err)
	}
	views := w.Views()
	if len(views) != 2 || views[1] != "V2" {
		t.Errorf("Views = %v", views)
	}
	g, err := w.Graph()
	if _, ok := g.ID("V2"); err != nil || !ok {
		t.Fatalf("Graph: %v", err)
	}
	if w.Internal() == nil {
		t.Errorf("Internal nil")
	}
	defer func() {
		if recover() == nil {
			t.Errorf("MustDefineViewSQL should panic on error")
		}
	}()
	w.MustDefineViewSQL("bad", "SELECT nope FROM B")
}

func TestMustDefineBasePanics(t *testing.T) {
	w := New()
	w.MustDefineBase("B", Schema{{Name: "x", Kind: KindInt}})
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic on duplicate base")
		}
	}()
	w.MustDefineBase("B", Schema{{Name: "x", Kind: KindInt}})
}

func TestValueHelpers(t *testing.T) {
	if Int(5).Int() != 5 || Float(2.5).Float() != 2.5 || String("x").Str() != "x" {
		t.Errorf("constructors wrong")
	}
	if Date("2026-07-05").String() != "2026-07-05" {
		t.Errorf("Date wrong")
	}
	if !Null.IsNull() {
		t.Errorf("Null wrong")
	}
	s := Strategy{Comp{View: "V", Over: []string{"A"}}, Inst{View: "A"}, Inst{View: "V"}}
	if !strings.Contains(s.String(), "Comp(V, {A})") {
		t.Errorf("strategy alias broken: %s", s)
	}
}

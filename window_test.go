package warehouse

import (
	"strings"
	"testing"
)

func TestRunWindowAndHistory(t *testing.T) {
	w := newRetail(t)

	// Window 1: MinWork (default when planner is "").
	stageSale(t, w)
	win1, err := w.RunWindow("")
	if err != nil {
		t.Fatal(err)
	}
	if win1.Seq != 1 || win1.Planner != MinWorkPlanner {
		t.Errorf("window 1 = %+v", win1)
	}
	if win1.Report.TotalWork() == 0 {
		t.Errorf("no work recorded")
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}

	// Window 2: Prune.
	d, err := w.NewDelta("SALES")
	if err != nil {
		t.Fatal(err)
	}
	d.Add(Tuple{Int(104), Int(2), Float(8)}, 1)
	if err := w.StageDelta("SALES", d); err != nil {
		t.Fatal(err)
	}
	win2, err := w.RunWindow(PrunePlanner)
	if err != nil {
		t.Fatal(err)
	}
	if win2.Seq != 2 || win2.Planner != PrunePlanner {
		t.Errorf("window 2 = %+v", win2)
	}
	if win2.Plan.EstimatedWork < 0 {
		t.Errorf("Prune should report an estimate")
	}

	// Window 3: dual-stage baseline.
	d, err = w.NewDelta("STORES")
	if err != nil {
		t.Fatal(err)
	}
	d.Add(Tuple{Int(3), String("north")}, 1)
	if err := w.StageDelta("STORES", d); err != nil {
		t.Fatal(err)
	}
	if _, err := w.RunWindow(DualStagePlanner); err != nil {
		t.Fatal(err)
	}

	hist := w.History()
	if len(hist) != 3 {
		t.Fatalf("history = %d windows", len(hist))
	}
	if w.TotalWindowWork() != hist[0].Report.TotalWork()+hist[1].Report.TotalWork()+hist[2].Report.TotalWork() {
		t.Errorf("TotalWindowWork inconsistent")
	}
	if !strings.Contains(hist[0].String(), "window 1 [minwork]") {
		t.Errorf("window string = %q", hist[0].String())
	}
	// History is a copy.
	hist[0].Seq = 99
	if w.History()[0].Seq != 1 {
		t.Errorf("History aliases internal state")
	}
	// Clone carries history.
	if got := len(w.Clone().History()); got != 3 {
		t.Errorf("clone history = %d", got)
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestWindowModes(t *testing.T) {
	w := newRetail(t)

	// Window 1: staged parallel execution through the facade.
	stageSale(t, w)
	win1, err := w.RunWindowOpts(WindowOptions{Planner: MinWorkPlanner, Mode: ModeStaged, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if win1.Mode != ModeStaged || win1.Parallel == nil {
		t.Fatalf("window 1 = %+v", win1)
	}
	if win1.Report.TotalWork() != win1.Parallel.TotalWork {
		t.Errorf("flattened report work %d != parallel total %d",
			win1.Report.TotalWork(), win1.Parallel.TotalWork)
	}
	if !strings.Contains(win1.String(), "[minwork, staged") {
		t.Errorf("window string = %q", win1.String())
	}

	// Window 2: barrier-free DAG execution.
	d, err := w.NewDelta("SALES")
	if err != nil {
		t.Fatal(err)
	}
	d.Add(Tuple{Int(105), Int(1), Float(3)}, 1)
	if err := w.StageDelta("SALES", d); err != nil {
		t.Fatal(err)
	}
	win2, err := w.RunWindowOpts(WindowOptions{Planner: DualStagePlanner, Mode: ModeDAG, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if win2.Mode != ModeDAG || win2.Parallel == nil {
		t.Fatalf("window 2 = %+v", win2)
	}
	pr := win2.Parallel
	if pr.CriticalPathWork > pr.SpanWork || pr.SpanWork > pr.TotalWork {
		t.Errorf("metric ordering violated: critpath %d span %d total %d",
			pr.CriticalPathWork, pr.SpanWork, pr.TotalWork)
	}
	if !strings.Contains(win2.String(), "dag") || !strings.Contains(win2.String(), "critical path") {
		t.Errorf("window string = %q", win2.String())
	}

	// History records both scheduling styles.
	if len(w.History()) != 2 {
		t.Fatalf("history = %d windows", len(w.History()))
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestWindowRejectsUnknownMode(t *testing.T) {
	w := newRetail(t)
	stageSale(t, w)
	if _, err := w.RunWindowOpts(WindowOptions{Planner: MinWorkPlanner, Mode: Mode("bogus"), Workers: 0}); err == nil {
		t.Errorf("unknown mode accepted")
	}
}

func TestRunWindowUnknownPlanner(t *testing.T) {
	w := newRetail(t)
	if _, err := w.RunWindow("nope"); err == nil {
		t.Errorf("unknown planner accepted")
	}
}

func TestUseIndexesThroughFacade(t *testing.T) {
	w := New(Options{UseIndexes: true})
	w.MustDefineBase("B", Schema{{Name: "k", Kind: KindInt}, {Name: "v", Kind: KindInt}})
	w.MustDefineBase("C", Schema{{Name: "k", Kind: KindInt}, {Name: "w", Kind: KindInt}})
	w.MustDefineViewSQL("J", `SELECT b.v, c.w FROM B b, C c WHERE b.k = c.k`)
	var rows []Tuple
	for i := int64(0); i < 50; i++ {
		rows = append(rows, Tuple{Int(i % 5), Int(i)})
	}
	if err := w.Load("B", rows); err != nil {
		t.Fatal(err)
	}
	if err := w.Load("C", rows); err != nil {
		t.Fatal(err)
	}
	if err := w.Refresh(); err != nil {
		t.Fatal(err)
	}
	d, err := w.NewDelta("B")
	if err != nil {
		t.Fatal(err)
	}
	d.Add(Tuple{Int(1), Int(999)}, 1)
	if err := w.StageDelta("B", d); err != nil {
		t.Fatal(err)
	}
	win, err := w.RunWindow(MinWorkPlanner)
	if err != nil {
		t.Fatal(err)
	}
	// With |δB| = 1 and indexes, work must be far below the |C| = 50 scan.
	if win.Report.CompWork >= 50 {
		t.Errorf("indexed comp work = %d, expected probes ≪ 50", win.Report.CompWork)
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
}

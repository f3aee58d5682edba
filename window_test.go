package warehouse

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/delta"
	"repro/internal/tpcd"
)

// TestRunWindowAndTally: each window's report is numbered in commit order,
// and the tally sums what the reports say; a failed window counts as failed
// and leaves the committed figures alone.
func TestRunWindowAndTally(t *testing.T) {
	w := newRetail(t)
	var reports []WindowReport

	// Window 1: MinWork (default when planner is "").
	stageSale(t, w)
	win1, err := w.RunWindowOpts(WindowOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reports = append(reports, win1)
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
	win2, err := w.RunWindowOpts(WindowOptions{Planner: PrunePlanner})
	if err != nil {
		t.Fatal(err)
	}
	reports = append(reports, win2)
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
	win3, err := w.RunWindowOpts(WindowOptions{Planner: DualStagePlanner})
	if err != nil {
		t.Fatal(err)
	}
	reports = append(reports, win3)
	// A window that starts and aborts counts as failed; options no window
	// runs under are refused untallied.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	stageSale(t, w)
	if _, err := w.RunWindowOpts(WindowOptions{Context: cancelled}); !errors.Is(err, ErrWindowAborted) {
		t.Fatalf("a cancelled window returned %v", err)
	}
	if _, err := w.RunWindowOpts(WindowOptions{Planner: "nope"}); err == nil {
		t.Fatal("unknown planner accepted")
	}

	want := WindowTally{Committed: 3, Failed: 1}
	for _, r := range reports {
		c := r.Counters()
		want.Work += r.Report.TotalWork()
		want.EngineCounters.Add(c.EngineCounters)
	}
	if got := w.Tally(); got != want || got.Work == 0 {
		t.Errorf("tally = %+v, the reports add up to %+v", got, want)
	}
	if !strings.Contains(win1.String(), "window 1 [minwork]") {
		t.Errorf("window string = %q", win1.String())
	}
	// A clone counts its own windows.
	if got := w.Clone().Tally(); got != (WindowTally{}) {
		t.Errorf("clone tally = %+v", got)
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

	// The tally counts both scheduling styles.
	if n := w.Tally().Committed; n != 2 {
		t.Fatalf("tally = %d windows", n)
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

// TestWindowRefusesBadOptions: an unknown planner or mode, or a negative
// worker count or timeout, is no window: RunWindowOpts refuses it with
// ErrBadWindowOptions, runs nothing and tallies nothing.
func TestWindowRefusesBadOptions(t *testing.T) {
	w := newRetail(t)
	stageSale(t, w)
	for _, o := range []WindowOptions{{Planner: "bogus"}, {Mode: "bogus"}, {Workers: -1}, {Timeout: -time.Second}} {
		if _, err := w.RunWindowOpts(o); !errors.Is(err, ErrBadWindowOptions) {
			t.Errorf("%+v: %v, want ErrBadWindowOptions", o, err)
		}
	}
	if tally := w.Tally(); tally.Committed != 0 || tally.Failed != 0 || w.Epoch() != 1 {
		t.Errorf("refused windows left tally %+v at epoch %d", tally, w.Epoch())
	}
}

func TestRunWindowUnknownPlanner(t *testing.T) {
	w := newRetail(t)
	if _, err := w.RunWindowOpts(WindowOptions{Planner: "nope"}); err == nil {
		t.Errorf("unknown planner accepted")
	}
}

// TestIndexCountersThroughFacade: on the default engine a window's work is
// the linear metric — the state operand's scan is charged — while the
// counters beside it say that an index probe read it; the second window
// finds the index the first one built on the committed state.
func TestIndexCountersThroughFacade(t *testing.T) {
	w := New()
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
	for window, wantSaved := range []int64{50, 101} {
		d, err := w.NewDelta("B")
		if err != nil {
			t.Fatal(err)
		}
		d.Add(Tuple{Int(1), Int(999 + int64(window))}, 1)
		if err := w.StageDelta("B", d); err != nil {
			t.Fatal(err)
		}
		win, err := w.RunWindowOpts(WindowOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Comp(J,{B}) = |δB| + |C| = 1 + 50 and Comp(J,{C}) = |δC| + |B| =
		// 0 + 50 + window, whatever serves the state operands. The empty δC
		// probes nothing and builds nothing, so all of |B| is saved; of |C|
		// nothing is in the window that scans it to build the index.
		if want := int64(101 + window); win.Report.CompWork != want {
			t.Errorf("window %d: comp work = %d, the linear metric gives %d", window, win.Report.CompWork, want)
		}
		if c := win.Counters(); c.IndexProbes != 1 || c.IndexTuplesSaved != wantSaved {
			t.Errorf("window %d: %d index probes saved %d tuples, want 1 and %d", window, c.IndexProbes, c.IndexTuplesSaved, wantSaved)
		}
		if err := w.Verify(); err != nil {
			t.Fatal(err)
		}
	}
	ex, err := w.Explain(Strategy{Comp{View: "J", Over: []string{"B", "C"}}, Inst{View: "B"}, Inst{View: "C"}, Inst{View: "J"}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex, "|C|=50 ix[0]") || !strings.Contains(ex, "join index C[0] keys=5 rows=50 probes=2 upkeep=0") {
		t.Errorf("EXPLAIN does not show C's join index:\n%s", ex)
	}
}

// TestAbortedWindowLosesOnlyItsIndexes: a window that fails after its first
// Comp built a join index on its clone leaves the serving state without
// that index — the clone is dropped whole — and the rerun builds it again,
// commits, and hands it to the state it publishes.
func TestAbortedWindowLosesOnlyItsIndexes(t *testing.T) {
	w := New()
	w.MustDefineBase("B", Schema{{Name: "k", Kind: KindInt}, {Name: "v", Kind: KindInt}})
	w.MustDefineBase("C", Schema{{Name: "k", Kind: KindInt}, {Name: "w", Kind: KindInt}})
	w.MustDefineViewSQL("J", `SELECT b.v, c.w FROM B b, C c WHERE b.k = c.k`)
	var rows []Tuple
	for i := int64(0); i < 50; i++ {
		rows = append(rows, Tuple{Int(i % 5), Int(i)})
	}
	for _, base := range []string{"B", "C"} {
		if err := w.Load(base, rows); err != nil {
			t.Fatal(err)
		}
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
	// The Comps are steps 1 and 2: the third step of each attempt fails —
	// the first and both retries — and so does the recompute rung.
	inj := NewFaultInjector(1)
	for hit := 3; hit <= 9; hit += 3 {
		inj.FailAt("step", hit)
	}
	inj.FailAt("recompute", 1)
	if _, err := w.RunWindowOpts(WindowOptions{Faults: inj}); err == nil {
		t.Fatal("the injected step failure did not fail the window")
	}
	if st := w.core.MustView("C").IndexStats(); len(st) != 0 {
		t.Fatalf("an aborted window left its index on the serving state: %v", st)
	}
	win, err := w.RunWindowOpts(WindowOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if c := win.Counters(); c.IndexProbes != 1 {
		t.Errorf("the rerun made %d index probes, want 1", c.IndexProbes)
	}
	if st := w.core.MustView("C").IndexStats(); len(st) != 1 || st[0].Probes != 1 {
		t.Errorf("the committed window did not hand on its index: %v", st)
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestFailedWindowLeavesWarehouseUntouched: every window runs on a clone, so
// a TPC-D window whose every rung fails past its first installs leaves the
// served state at its pre-window digest with the batch still staged, and the
// warehouse still verifies.
func TestFailedWindowLeavesWarehouseUntouched(t *testing.T) {
	tw, err := tpcd.NewWarehouse(tpcd.Config{SF: 0.001, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	w := FromCore(tw.W)
	before := w.StateDigest()
	if _, err := tw.StageChanges(tpcd.UniformDecrease(0.10)); err != nil {
		t.Fatal(err)
	}
	// The sixth step of the sequential attempt and of both its retries fails,
	// and so does the recompute rung.
	inj := NewFaultInjector(1)
	for hit := 6; hit <= 18; hit += 6 {
		inj.FailAt("step", hit)
	}
	inj.FailAt("recompute", 1)
	if _, err := w.RunWindowOpts(WindowOptions{Faults: inj}); err == nil {
		t.Fatal("the injected failures did not fail the window")
	}
	if got := w.StateDigest(); got != before {
		t.Fatalf("state digest %016x after the failed window, %016x before it", got, before)
	}
	if len(w.Pending()) == 0 {
		t.Fatal("the failed window consumed the staged batch")
	}
	if err := w.Verify(); err != nil {
		t.Fatalf("warehouse after the failed window: %v", err)
	}
}

// TestFailedWindowKeepsTheStagedBatch: a window's clone shares the staged
// batch instead of copying it, and a window that fails on every rung —
// after its attempts have installed base deltas on their clones — leaves the
// serving warehouse's batch bag-identical; the next window sees it whole and
// does the work a warehouse that never failed does.
func TestFailedWindowKeepsTheStagedBatch(t *testing.T) {
	build := func() *Warehouse {
		tw, err := tpcd.NewWarehouse(tpcd.Config{SF: 0.001, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tw.StageChanges(tpcd.Mixed(0.10, 0.05)); err != nil {
			t.Fatal(err)
		}
		return FromCore(tw.W)
	}
	w := build()
	staged := func() map[string][]delta.Change { // each pending view's changes, sorted
		out := map[string][]delta.Change{}
		for _, v := range w.Pending() {
			d, err := w.core.DeltaOf(v)
			if err != nil {
				t.Fatal(err)
			}
			out[v] = d.Sorted()
		}
		return out
	}
	batch := staged()
	inj := NewFaultInjector(1)
	for hit := 20; hit <= 60; hit += 20 {
		inj.FailAt("step", hit) // late enough that the base views were installed
	}
	inj.FailAt("recompute", 1)
	if _, err := w.RunWindowOpts(WindowOptions{Faults: inj}); err == nil {
		t.Fatal("the injected failures did not fail the window")
	}
	if after := staged(); len(after) == 0 || !reflect.DeepEqual(after, batch) {
		t.Fatal("the failed window changed the staged batch")
	}
	retry, err := w.RunWindowOpts(WindowOptions{})
	if err != nil {
		t.Fatal(err)
	}
	control, err := build().RunWindowOpts(WindowOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if retry.Report.TotalWork() != control.Report.TotalWork() {
		t.Errorf("the retry did %d work, a window that never failed %d", retry.Report.TotalWork(), control.Report.TotalWork())
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestReadersBesideASharedBatch: readers query the serving epoch — whose
// staged batch the window's clone shares — while DAG workers scan that batch
// and install it on the clone; run under -race, none of it races.
func TestReadersBesideASharedBatch(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		tw, err := tpcd.NewWarehouse(tpcd.Config{SF: 0.001, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tw.StageChanges(tpcd.Mixed(0.05, 0.05)); err != nil {
			t.Fatal(err)
		}
		w := FromCore(tw.W)
		done := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					if _, err := w.Query("SELECT N_NAME, REVENUE FROM Q5"); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		_, err = w.RunWindowOpts(WindowOptions{Mode: ModeDAG, Workers: 4})
		close(done)
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Verify(); err != nil {
			t.Fatal(err)
		}
	}
}

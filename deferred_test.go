package warehouse

import (
	"fmt"
	"strings"
	"testing"
)

// newChain builds SALES → DETAILS (SPJ) → DAILY (agg) → MONTHLY (agg over
// agg) for deferred-maintenance tests.
func newChain(t *testing.T) *Warehouse {
	t.Helper()
	w := New()
	w.MustDefineBase("SALES", Schema{
		{Name: "id", Kind: KindInt},
		{Name: "day", Kind: KindInt},
		{Name: "amount", Kind: KindInt},
	})
	w.MustDefineViewSQL("DETAILS", `SELECT id, day, amount FROM SALES WHERE amount > 0`)
	w.MustDefineViewSQL("DAILY", `SELECT day, SUM(amount) AS total FROM DETAILS GROUP BY day`)
	w.MustDefineViewSQL("MONTHLY", `SELECT SUM(total) AS grand FROM DAILY`)
	if err := w.Load("SALES", []Tuple{
		{Int(1), Int(1), Int(10)},
		{Int(2), Int(1), Int(20)},
		{Int(3), Int(2), Int(5)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Refresh(); err != nil {
		t.Fatal(err)
	}
	return w
}

func stageChainChange(t *testing.T, w *Warehouse) {
	t.Helper()
	d, err := w.NewDelta("SALES")
	if err != nil {
		t.Fatal(err)
	}
	d.Add(Tuple{Int(4), Int(2), Int(100)}, 1)
	d.Add(Tuple{Int(1), Int(1), Int(10)}, -1)
	if err := w.StageDelta("SALES", d); err != nil {
		t.Fatal(err)
	}
}

func TestDeferredViewSkippedAndStale(t *testing.T) {
	w := newChain(t)
	// Defer DAILY: MONTHLY is defined over it, so it is effectively
	// deferred too.
	if err := w.SetDeferred("DAILY", true); err != nil {
		t.Fatal(err)
	}
	stageChainChange(t, w)
	plan, err := w.PlanMinWork()
	if err != nil {
		t.Fatal(err)
	}
	// The strategy must not touch DAILY or MONTHLY.
	if strings.Contains(plan.Strategy.String(), "DAILY") || strings.Contains(plan.Strategy.String(), "MONTHLY") {
		t.Fatalf("deferred views in strategy: %s", plan.Strategy)
	}
	if _, err := w.Execute(plan.Strategy, ModeSequential, 0); err != nil {
		t.Fatal(err)
	}
	// DETAILS is current; DAILY and MONTHLY stale.
	stale := w.StaleViews()
	if len(stale) != 2 || stale[0] != "DAILY" || stale[1] != "MONTHLY" {
		t.Fatalf("stale = %v", stale)
	}
	// Verify passes (stale views skipped) and DAILY still shows old totals.
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
	rows, err := w.Query("SELECT day, total FROM DAILY ORDER BY day")
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].String() != "(1, 30)" || rows[1].String() != "(2, 5)" {
		t.Fatalf("stale DAILY = %v", rows)
	}
	// Refresh on demand brings both current.
	if err := w.RefreshStale(); err != nil {
		t.Fatal(err)
	}
	if len(w.StaleViews()) != 0 {
		t.Errorf("still stale: %v", w.StaleViews())
	}
	rows, err = w.Query("SELECT day, total FROM DAILY ORDER BY day")
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].String() != "(1, 20)" || rows[1].String() != "(2, 105)" {
		t.Fatalf("refreshed DAILY = %v", rows)
	}
	rows, err = w.Query("SELECT grand FROM MONTHLY")
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].String() != "(125)" {
		t.Fatalf("refreshed MONTHLY = %v", rows)
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestDeferredSkipAcrossModes: whatever the scheduling mode and width — in
// place through Execute or as a window — a strategy that skips a deferred
// view leaves it (and its dependents) marked stale, so StaleViews and Verify
// agree. At the commit before the executors were unified this failed for the
// staged-plan entry point (ExecuteParallel): it never ran the
// deferred-maintenance bookkeeping, so DAILY was left unmarked and Verify
// reported it diverged.
func TestDeferredSkipAcrossModes(t *testing.T) {
	for _, mode := range []Mode{ModeSequential, ModeStaged, ModeDAG} {
		for _, workers := range []int{1, 4} {
			for _, window := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/workers=%d/window=%v", mode, workers, window), func(t *testing.T) {
					w := newChain(t)
					if err := w.SetDeferred("DAILY", true); err != nil {
						t.Fatal(err)
					}
					stageChainChange(t, w)
					if window {
						win, err := w.RunWindowOpts(WindowOptions{Mode: mode, Workers: workers})
						if err != nil {
							t.Fatal(err)
						}
						if got := fmt.Sprint(win.StaleAfter); got != "[DAILY MONTHLY]" {
							t.Errorf("window reports stale %s", got)
						}
					} else {
						plan, err := w.PlanMinWork()
						if err != nil {
							t.Fatal(err)
						}
						if _, err := w.Execute(plan.Strategy, mode, workers); err != nil {
							t.Fatal(err)
						}
					}
					if got := fmt.Sprint(w.StaleViews()); got != "[DAILY MONTHLY]" {
						t.Errorf("stale = %s, want [DAILY MONTHLY]", got)
					}
					if err := w.Verify(); err != nil {
						t.Errorf("Verify disagrees with the stale marks: %v", err)
					}
				})
			}
		}
	}
}

func TestDeferredBackToImmediate(t *testing.T) {
	w := newChain(t)
	if err := w.SetDeferred("MONTHLY", true); err != nil {
		t.Fatal(err)
	}
	if err := w.SetDeferred("MONTHLY", false); err != nil {
		t.Fatal(err)
	}
	stageChainChange(t, w)
	plan, err := w.PlanMinWork()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Strategy.String(), "MONTHLY") {
		t.Fatalf("restored view missing from strategy: %s", plan.Strategy)
	}
	if _, err := w.Execute(plan.Strategy, ModeSequential, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestDeferredLeafOnly(t *testing.T) {
	// Deferring only the top view leaves the rest immediate.
	w := newChain(t)
	if err := w.SetDeferred("MONTHLY", true); err != nil {
		t.Fatal(err)
	}
	stageChainChange(t, w)
	plan, err := w.PlanMinWork()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Strategy.String(), "DAILY") {
		t.Fatalf("DAILY should stay immediate: %s", plan.Strategy)
	}
	if _, err := w.Execute(plan.Strategy, ModeSequential, 0); err != nil {
		t.Fatal(err)
	}
	if got := w.StaleViews(); len(got) != 1 || got[0] != "MONTHLY" {
		t.Fatalf("stale = %v", got)
	}
	// DAILY is verifiable and current.
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := w.RefreshStale(); err != nil {
		t.Fatal(err)
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestUndeferWhileStaleStaysExcluded: removing deferral does not make a
// stale view incrementally maintainable — it missed deltas, so planners
// keep excluding it until RefreshStale.
func TestUndeferWhileStaleStaysExcluded(t *testing.T) {
	w := newChain(t)
	if err := w.SetDeferred("DAILY", true); err != nil {
		t.Fatal(err)
	}
	stageChainChange(t, w)
	plan, err := w.PlanMinWork()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Execute(plan.Strategy, ModeSequential, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.SetDeferred("DAILY", false); err != nil {
		t.Fatal(err)
	}
	// Second window: DAILY is immediate again but still stale.
	stageChainChange2(t, w)
	plan, err = w.PlanMinWork()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan.Strategy.String(), "DAILY") {
		t.Fatalf("stale view re-entered strategy: %s", plan.Strategy)
	}
	if _, err := w.Execute(plan.Strategy, ModeSequential, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.RefreshStale(); err != nil {
		t.Fatal(err)
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
	// Third window: DAILY is current and immediate → back in strategies.
	stageChainChange3(t, w)
	plan, err = w.PlanMinWork()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Strategy.String(), "DAILY") {
		t.Fatalf("refreshed view missing from strategy: %s", plan.Strategy)
	}
	if _, err := w.Execute(plan.Strategy, ModeSequential, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
}

func stageChainChange2(t *testing.T, w *Warehouse) {
	t.Helper()
	d, err := w.NewDelta("SALES")
	if err != nil {
		t.Fatal(err)
	}
	d.Add(Tuple{Int(5), Int(3), Int(7)}, 1)
	if err := w.StageDelta("SALES", d); err != nil {
		t.Fatal(err)
	}
}

func stageChainChange3(t *testing.T, w *Warehouse) {
	t.Helper()
	d, err := w.NewDelta("SALES")
	if err != nil {
		t.Fatal(err)
	}
	d.Add(Tuple{Int(6), Int(3), Int(9)}, 1)
	if err := w.StageDelta("SALES", d); err != nil {
		t.Fatal(err)
	}
}

func TestSetDeferredErrors(t *testing.T) {
	w := newChain(t)
	if err := w.SetDeferred("SALES", true); err == nil {
		t.Errorf("base view deferral accepted")
	}
	if err := w.SetDeferred("NOPE", true); err == nil {
		t.Errorf("unknown view accepted")
	}
}

func TestRefreshViewGuards(t *testing.T) {
	w := newChain(t)
	if err := w.SetDeferred("DAILY", true); err != nil {
		t.Fatal(err)
	}
	stageChainChange(t, w)
	plan, err := w.PlanMinWork()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Execute(plan.Strategy, ModeSequential, 0); err != nil {
		t.Fatal(err)
	}
	// Refreshing MONTHLY before DAILY must fail (stale child).
	if err := w.Internal().RefreshView("MONTHLY"); err == nil || !strings.Contains(err.Error(), "stale") {
		t.Errorf("refresh over stale child accepted: %v", err)
	}
	if err := w.Internal().RefreshView("SALES"); err == nil {
		t.Errorf("refresh of base view accepted")
	}
	if err := w.Internal().RefreshView("NOPE"); err == nil {
		t.Errorf("refresh of unknown view accepted")
	}
	// Bottom-up order works.
	if err := w.Internal().RefreshView("DAILY"); err != nil {
		t.Fatal(err)
	}
	if err := w.Internal().RefreshView("MONTHLY"); err != nil {
		t.Fatal(err)
	}
	if len(w.StaleViews()) != 0 {
		t.Errorf("stale remain: %v", w.StaleViews())
	}
}

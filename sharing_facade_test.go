package warehouse

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/exec"
	"repro/internal/planner"
)

// newSharingWarehouse builds the sharing planner's fixture: bases D(k,x),
// A0(k,y), B(y,z), the summary view A(k,y) = A0 grouped by k, and three
// sibling views Vi = D ⋈ A ⋈ B with distinct selections. Staging δD makes
// every Comp(Vi, {D}) join δD with A's state, the operand the planner's
// sharing election counts three consumers of. A is a summary view because
// that is the state operand a Comp still scans and hashes: a plain table's
// state is read through its resident join index, while an aggregate store
// carries no index.
func newSharingWarehouse(t *testing.T, opts Options) *Warehouse {
	t.Helper()
	w := New(opts)
	w.MustDefineBase("D", Schema{{Name: "k", Kind: KindInt}, {Name: "x", Kind: KindInt}})
	w.MustDefineBase("A0", Schema{{Name: "k", Kind: KindInt}, {Name: "y", Kind: KindInt}})
	w.MustDefineBase("B", Schema{{Name: "y", Kind: KindInt}, {Name: "z", Kind: KindInt}})
	w.MustDefineViewSQL("A", `SELECT k, MAX(y) AS y FROM A0 GROUP BY k`)
	for i := 1; i <= 3; i++ {
		w.MustDefineViewSQL(fmt.Sprintf("V%d", i), fmt.Sprintf(`
			SELECT d.x, b.z
			FROM D d, A a, B b
			WHERE d.k = a.k AND a.y = b.y AND b.z > %d`, i))
	}
	var dRows, aRows, bRows []Tuple
	for i := int64(0); i < 60; i++ {
		dRows = append(dRows, Tuple{Int(i), Int(i * 3)})
		aRows = append(aRows, Tuple{Int(i), Int(i % 7)})
	}
	for j := int64(0); j < 7; j++ {
		bRows = append(bRows, Tuple{Int(j), Int(j * 2)})
	}
	for name, rows := range map[string][]Tuple{"D": dRows, "A0": aRows, "B": bRows} {
		if err := w.Load(name, rows); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Refresh(); err != nil {
		t.Fatal(err)
	}
	return w
}

func stageSharingDelta(t *testing.T, w *Warehouse) {
	t.Helper()
	d, err := w.NewDelta("D")
	if err != nil {
		t.Fatal(err)
	}
	d.Add(Tuple{Int(3), Int(500)}, 1)
	d.Add(Tuple{Int(7), Int(-1)}, 1)
	if err := w.StageDelta("D", d); err != nil {
		t.Fatal(err)
	}
}

// TestAnalyzeSharingBudgetClamp (regression): no byte budget clamps sharing.
// A 1-byte MemoryBudgetBytes, which is inert, leaves the election's estimates
// as they are, and the window lands on the same view states.
func TestAnalyzeSharingBudgetClamp(t *testing.T) {
	open := newSharingWarehouse(t, Options{})
	starved := newSharingWarehouse(t, Options{MemoryBudgetBytes: 1})
	election := func(w *Warehouse) planner.SharingPlan {
		t.Helper()
		stageSharingDelta(t, w)
		plan, err := w.Plan(MinWorkPlanner)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := exec.PlanningStats(w.core)
		if err != nil {
			t.Fatal(err)
		}
		return planner.AnalyzeSharing(plan.Strategy, exec.RefsOf(w.core), planner.SharingOptions{Stats: stats, Width: exec.WidthOf(w.core)})
	}
	eo, es := election(open), election(starved)
	if eo.SharedOperands == 0 || eo.EstimatedSavedTuples == 0 {
		t.Fatalf("unbudgeted election found no sharing: %+v", eo)
	}
	if !reflect.DeepEqual(es, eo) {
		t.Errorf("a 1-byte budget changed the election:\n%+v\nwant\n%+v", es, eo)
	}

	if _, err := open.RunWindowOpts(WindowOptions{}); err != nil {
		t.Fatal(err)
	}
	rs, err := starved.RunWindowOpts(WindowOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cs := rs.Counters(); cs.SpillCount != 0 {
		t.Errorf("the inert budget spilled: %+v", cs)
	}
	for i := 1; i <= 3; i++ {
		v := fmt.Sprintf("V%d", i)
		if !sameRows(rowsOf(t, open, v), rowsOf(t, starved, v)) {
			t.Errorf("%s differs from the unbudgeted window's result", v)
		}
	}
	if err := starved.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestRunWindowSharedPlanner runs a window of the sharing-aware planner end
// to end: state stays correct, as it does in a differently planned window
// after it.
func TestRunWindowSharedPlanner(t *testing.T) {
	for _, mode := range []Mode{ModeSequential, ModeStaged} {
		t.Run(string(mode), func(t *testing.T) {
			w := newSharingWarehouse(t, Options{})
			stageSharingDelta(t, w)
			win, err := w.RunWindowOpts(WindowOptions{Planner: SharedPlanner, Mode: mode, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if win.Planner != SharedPlanner {
				t.Errorf("planner = %q", win.Planner)
			}
			if err := w.Verify(); err != nil {
				t.Fatal(err)
			}

			stageSharingDelta(t, w)
			if _, err := w.RunWindowOpts(WindowOptions{Planner: MinWorkPlanner, Mode: mode, Workers: 2}); err != nil {
				t.Fatal(err)
			}
			if err := w.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSharedPlannerMatchesPlainResults: the sharing-aware planner's window
// must produce the same view states as a MinWork window over the same
// changes.
func TestSharedPlannerMatchesPlainResults(t *testing.T) {
	plain := newSharingWarehouse(t, Options{})
	shared := newSharingWarehouse(t, Options{})
	stageSharingDelta(t, plain)
	stageSharingDelta(t, shared)
	if _, err := plain.RunWindowOpts(WindowOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := shared.RunWindowOpts(WindowOptions{Planner: SharedPlanner}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		name := fmt.Sprintf("V%d", i)
		a, err := plain.Rows(name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := shared.Rows(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: %d rows plain vs %d shared", name, len(a), len(b))
		}
	}
	if err := shared.Verify(); err != nil {
		t.Fatal(err)
	}
}

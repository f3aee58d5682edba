package warehouse

import (
	"fmt"
	"strings"
	"testing"
)

// newSharingWarehouse builds the sharing fixture: bases D(k,x), A0(k,y),
// B(y,z), the summary view A(k,y) = A0 grouped by k, and three sibling views
// Vi = D ⋈ A ⋈ B with distinct selections. Staging δD makes every
// Comp(Vi, {D}) join δD with A's state, which the three then build once. A
// is a summary view because that is the state operand a window still scans
// and hashes: a plain table's state is read through its resident join index
// and builds nothing to share, while an aggregate store carries no index.
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
// as they are, and the window serves every hit it serves without one, with
// the same view states.
func TestAnalyzeSharingBudgetClamp(t *testing.T) {
	open := newSharingWarehouse(t, Options{ShareComputation: true})
	starved := newSharingWarehouse(t, Options{ShareComputation: true, MemoryBudgetBytes: 1})
	election := func(w *Warehouse) string {
		t.Helper()
		stageSharingDelta(t, w)
		plan, err := w.Plan(MinWorkPlanner)
		if err != nil {
			t.Fatal(err)
		}
		out, err := w.ExplainSharing(plan.Strategy)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	eo, es := election(open), election(starved)
	if !strings.Contains(eo, "consumers=") || strings.Contains(eo, "est saved 0 tuples") {
		t.Fatalf("unbudgeted election found no sharing:\n%s", eo)
	}
	if es != eo {
		t.Errorf("a 1-byte budget changed the election:\n%s\nwant\n%s", es, eo)
	}

	ro, err := open.RunWindowOpts(WindowOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := starved.RunWindowOpts(WindowOptions{})
	if err != nil {
		t.Fatal(err)
	}
	co, cs := ro.Counters(), rs.Counters()
	if co.SharedHits == 0 || co.SharedTuplesSaved == 0 {
		t.Fatalf("unbudgeted window saw no reuse: %+v", co)
	}
	if cs.SharedHits != co.SharedHits || cs.SharedTuplesSaved != co.SharedTuplesSaved {
		t.Errorf("starved window reused %d hits / %d tuples, want %d / %d",
			cs.SharedHits, cs.SharedTuplesSaved, co.SharedHits, co.SharedTuplesSaved)
	}
	if cs.SpillCount != 0 {
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
// to end: the window reports reuse hits and per-build detail, and state
// stays correct, as it does in a differently planned window after it.
func TestRunWindowSharedPlanner(t *testing.T) {
	for _, mode := range []Mode{ModeSequential, ModeStaged} {
		t.Run(string(mode), func(t *testing.T) {
			w := newSharingWarehouse(t, Options{ShareComputation: true})
			stageSharingDelta(t, w)
			win, err := w.RunWindowOpts(WindowOptions{Planner: SharedPlanner, Mode: mode, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if win.Planner != SharedPlanner {
				t.Errorf("planner = %q", win.Planner)
			}
			c := win.Counters()
			if c.SharedHits == 0 || c.SharedTuplesSaved == 0 {
				t.Errorf("joint window saw no reuse: %+v", c)
			}
			if len(win.Report.SharedDetail) == 0 {
				t.Errorf("no shared detail recorded")
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

// TestSharedPlannerMatchesPlainResults: the jointly-optimized window must
// produce bit-identical view states to a sharing-off window over the same
// changes.
func TestSharedPlannerMatchesPlainResults(t *testing.T) {
	plain := newSharingWarehouse(t, Options{})
	shared := newSharingWarehouse(t, Options{ShareComputation: true})
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

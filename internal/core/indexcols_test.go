package core_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/relation"
	"repro/internal/tpcd"
)

// TestCompiledIndexStepsNameOneColumn: every Comp of Q3, Q5 and Q10 — every
// non-empty subset of a view's children, every driver — compiles each index
// step onto one column: column 0 when the step binds it (the key the row
// map serves), its one key column otherwise. The index a step probes is
// compiled with the join order, so the indexes TPC-D's tables hold are the
// ones listed here whatever the data and whichever term probes first.
func TestCompiledIndexStepsNameOneColumn(t *testing.T) {
	tw, err := tpcd.NewWarehouse(tpcd.Config{SF: 0.0005, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	asked := make(map[string]bool)
	for _, q := range []string{tpcd.Q3, tpcd.Q5, tpcd.Q10} {
		var children []string
		for _, ref := range tpcd.Definitions()[q].Refs {
			if !slices.Contains(children, ref.View) {
				children = append(children, ref.View)
			}
		}
		for mask := 1; mask < 1<<len(children); mask++ {
			var over []string
			for i, c := range children {
				if mask&(1<<i) != 0 {
					over = append(over, c)
				}
			}
			steps, err := core.IndexSteps(tw.W, q, over)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range steps {
				asked[fmt.Sprint(s.View, s.Cols)] = true
				if len(s.Cols) != 1 {
					t.Errorf("Comp(%s, %v) probes %s on %v, want one column", q, over, s.View, s.Cols)
				}
			}
		}
	}
	names := make([]string, 0, len(asked))
	for n := range asked {
		names = append(names, n)
	}
	slices.Sort(names)
	t.Logf("%d indexes asked: %v", len(names), names)
}

// TestSummaryViewStateIsProbedThroughAnIndex: a summary view's rows are a
// table like any other view's, so a term that joins its state probes that
// table's resident index. On the deep TPC-D VDAG, Comp(NATION_REVENUE,
// {NATION}) drives from δNATION and reads Q5, joined on N_NAME — Q5's
// column 0 — through an index step: it probes, builds no table, and is
// charged every operand's cardinality, as any Comp is.
func TestSummaryViewStateIsProbedThroughAnIndex(t *testing.T) {
	tw, err := tpcd.NewWarehouse(tpcd.Config{SF: 0.001, Seed: 7, DeepVDAG: true})
	if err != nil {
		t.Fatal(err)
	}
	w := tw.W
	steps, err := core.IndexSteps(w, tpcd.NationRevenue, []string{tpcd.Nation})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(steps, func(s core.IndexStep) bool { return s.View == tpcd.Q5 && slices.Equal(s.Cols, []int{0}) }) {
		t.Fatalf("Comp(%s, {%s}) compiles index steps %v, want one on %s's column 0", tpcd.NationRevenue, tpcd.Nation, steps, tpcd.Q5)
	}
	// δNATION deletes the nation of one Q5 row.
	q5 := w.MustView(tpcd.Q5).SortedRows()
	if len(q5) == 0 {
		t.Fatal("Q5 is empty")
	}
	nation := w.MustView(tpcd.Nation)
	d := delta.New(nation.Schema())
	nation.Scan(func(row relation.Tuple, count int64) bool {
		if relation.Compare(row[1], q5[0].Tuple[0]) == 0 {
			d.Add(row, -count)
		}
		return true
	})
	if err := d.Seal(); err != nil {
		t.Fatal(err)
	}
	if d.IsEmpty() {
		t.Fatalf("no NATION row is named %v", q5[0].Tuple[0])
	}
	if err := w.StageDelta(tpcd.Nation, d); err != nil {
		t.Fatal(err)
	}
	rep, err := w.ComputeCtx(nil, tpcd.NationRevenue, []string{tpcd.Nation})
	if err != nil {
		t.Fatal(err)
	}
	if rep.IndexProbes == 0 || rep.CacheMisses != 0 {
		t.Errorf("index probes %d, build tables %d; want probes and no build", rep.IndexProbes, rep.CacheMisses)
	}
	if want := d.Size() + w.MustView(tpcd.Q5).Cardinality(); rep.OperandTuples != want {
		t.Errorf("work %d, want |δNATION| + |Q5| = %d", rep.OperandTuples, want)
	}
	if st := w.MustView(tpcd.Q5).IndexStats(); len(st) != 1 || !slices.Equal(st[0].Cols, []int{0}) || st[0].Probes == 0 {
		t.Errorf("Q5's indexes: %v, want the one on column 0, probed", st)
	}
}

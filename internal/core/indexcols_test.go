package core_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
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

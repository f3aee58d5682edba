package warehouse

import (
	"maps"
	"strings"
	"testing"

	"repro/internal/tpcd"
)

func TestExplain(t *testing.T) {
	w := newRetail(t)
	stageSale(t, w)
	plan, err := w.Plan(MinWorkPlanner)
	if err != nil {
		t.Fatal(err)
	}
	out, err := w.Explain(plan.Strategy)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"EXPLAIN",
		"Comp(SALES_BY_STORE, {SALES})",
		"terms=1",
		"|δSALES|=2",
		"total predicted work:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
	// MinWork installs SALES (3 rows − 1 + 1) at step 2, so step 3, the
	// join's Comp over STORES, reads SALES in its post-install state.
	lines := strings.Split(out, "\n")
	if len(lines) < 4 || !strings.HasPrefix(lines[3], "  3. Comp(SALES_BY_STORE, {STORES})") || !strings.Contains(lines[3], "|SALES′|=3") {
		t.Errorf("step 3 is not Comp(SALES_BY_STORE, {STORES}) reading |SALES′|=3:\n%s", out)
	}
	// Incorrect strategies are rejected before explanation.
	bad := Strategy{Inst{View: "SALES"}}
	if _, err := w.Explain(bad); err == nil {
		t.Errorf("incorrect strategy explained")
	}
}

// TestExplainMarksIndexesTheRowMapServes: once windows have installed into
// TPC-D's tables, the three the batches write — LINEITEM, ORDER and
// CUSTOMER — place their rows by their key, column 0, and EXPLAIN marks
// the index there as served by the row map. The tables no batch writes keep
// their postings, and so do the indexes on other columns.
func TestExplainMarksIndexesTheRowMapServes(t *testing.T) {
	tw, err := tpcd.NewWarehouse(tpcd.Config{SF: residentSF, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	w := FromCore(tw.W)
	for k := 0; k < 3; k++ {
		tw.W = w.Internal() // tpcd stages on the core the facade serves
		spec := tpcd.Mixed(0.005, 0.005)
		spec.Seed = int64(k + 1)
		if _, err := tw.StageChanges(spec); err != nil {
			t.Fatal(err)
		}
		if _, err := w.RunWindowOpts(WindowOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := w.Plan(MinWorkPlanner)
	if err != nil {
		t.Fatal(err)
	}
	out, err := w.Explain(plan.Strategy)
	if err != nil {
		t.Fatal(err)
	}
	placed := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		if name, ok := strings.CutPrefix(line, "join index "); ok {
			placed[name[:strings.Index(name, "]")+1]] = strings.HasSuffix(line, " placed")
		}
	}
	want := map[string]bool{
		"LINEITEM[0]": true, "ORDER[0]": true, "CUSTOMER[0]": true,
		"ORDER[1]": false, "SUPPLIER[0]": false,
		"NATION[0]": false, "REGION[0]": false,
	}
	if !maps.Equal(placed, want) {
		t.Errorf("the indexes EXPLAIN lists, and which the row map serves, are %v, want %v:\n%s", placed, want, out)
	}
}

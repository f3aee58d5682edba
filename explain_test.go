package warehouse

import (
	"fmt"
	"maps"
	"strings"
	"testing"

	"repro/internal/tpcd"
)

func TestExplain(t *testing.T) {
	w := newRetail(t)
	stageSale(t, w)
	plan, err := w.PlanMinWork()
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
	// After Inst(SALES), later comps must show the post-install size mark.
	if !strings.Contains(out, "SALES′") && !strings.Contains(out, "SALES′") {
		// The join view reads SALES; with SALES installed first its size
		// shows as post-install in the second comp... unless ordering put
		// STORES first. Accept either, but the formatting path must exist
		// when a child is installed before a later comp reads it.
		t.Logf("no post-install mark in output (ordering-dependent):\n%s", out)
	}
	// Incorrect strategies are rejected before explanation.
	bad := Strategy{Inst{View: "SALES"}}
	if _, err := w.Explain(bad); err == nil {
		t.Errorf("incorrect strategy explained")
	}
}

func TestExplainCompare(t *testing.T) {
	w := newRetail(t)
	stageSale(t, w)
	mw, err := w.PlanMinWork()
	if err != nil {
		t.Fatal(err)
	}
	ds, err := w.Plan(DualStagePlanner)
	if err != nil {
		t.Fatal(err)
	}
	out, err := w.ExplainCompare(mw.Strategy, ds.Strategy)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "strategy A") || !strings.Contains(out, "strategy B") {
		t.Errorf("compare format wrong:\n%s", out)
	}
	if !strings.Contains(out, "B/A predicted work ratio:") {
		t.Errorf("ratio missing:\n%s", out)
	}
	// The dual-stage baseline must not be predicted cheaper.
	idx := strings.LastIndex(out, "ratio: ")
	if idx < 0 {
		t.Fatalf("ratio missing:\n%s", out)
	}
	var ratio float64
	if _, err := fmt.Sscanf(out[idx:], "ratio: %f", &ratio); err != nil {
		t.Fatalf("cannot parse ratio: %v", err)
	}
	if ratio < 1 {
		t.Errorf("dual-stage predicted cheaper than MinWork: %v", ratio)
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
	w := FromCore(tw.W, CostModel{})
	for k := 0; k < 3; k++ {
		tw.W = w.Internal() // tpcd stages on the core the facade serves
		spec := tpcd.Mixed(0.005, 0.005)
		spec.Seed = int64(k + 1)
		if _, err := tw.StageChanges(spec); err != nil {
			t.Fatal(err)
		}
		if _, err := w.RunWindow(MinWorkPlanner); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := w.PlanMinWork()
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
			placed[strings.Fields(name)[0]] = strings.HasSuffix(line, " placed")
		}
	}
	want := map[string]bool{
		"LINEITEM[0]": true, "ORDER[0]": true, "CUSTOMER[0]": true,
		"ORDER[1]": false, "CUSTOMER[2]": false, "SUPPLIER[0]": false, "SUPPLIER[2]": false,
		"NATION[0]": false, "REGION[0]": false,
	}
	if !maps.Equal(placed, want) {
		t.Errorf("the indexes EXPLAIN lists, and which the row map serves, are %v, want %v:\n%s", placed, want, out)
	}
}

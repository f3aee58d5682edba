package warehouse

import (
	"fmt"
	"strings"
	"testing"
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

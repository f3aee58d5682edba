package warehouse

import (
	"bytes"
	"strings"
	"testing"
)

func TestSnapshotThroughFacade(t *testing.T) {
	w := newRetail(t)
	var buf bytes.Buffer
	if err := w.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// Restore into a freshly declared catalog (no data, no Refresh).
	fresh := New()
	fresh.MustDefineBase("STORES", Schema{
		{Name: "store_id", Kind: KindInt},
		{Name: "region", Kind: KindString},
	})
	fresh.MustDefineBase("SALES", Schema{
		{Name: "sale_id", Kind: KindInt},
		{Name: "store_id", Kind: KindInt},
		{Name: "amount", Kind: KindFloat},
	})
	fresh.MustDefineViewSQL("SALES_BY_STORE", `
		SELECT s.sale_id, s.amount, st.region
		FROM SALES s, STORES st
		WHERE s.store_id = st.store_id`)
	fresh.MustDefineViewSQL("REGION_TOTALS", `
		SELECT region, SUM(amount) AS total, COUNT(*) AS n
		FROM SALES_BY_STORE GROUP BY region`)
	if err := fresh.LoadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Verify(); err != nil {
		t.Fatal(err)
	}
	a, err := w.Rows("REGION_TOTALS")
	if err != nil {
		t.Fatal(err)
	}
	b, err := fresh.Rows("REGION_TOTALS")
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("restored rows differ: %v vs %v", a, b)
	}
	for i := range a {
		if a[i].Tuple.String() != b[i].Tuple.String() {
			t.Errorf("row %d: %v vs %v", i, a[i], b[i])
		}
	}
	// The restored warehouse runs a full update window.
	stageSale(t, fresh)
	plan, err := fresh.PlanMinWork()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Execute(plan.Strategy, ModeSequential, 0); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Verify(); err != nil {
		t.Fatal(err)
	}
	// Snapshot refuses pending state.
	w2 := newRetail(t)
	stageSale(t, w2)
	if err := w2.SaveSnapshot(&bytes.Buffer{}); err == nil {
		t.Errorf("SaveSnapshot over pending changes accepted")
	}
}

func TestScriptThroughFacade(t *testing.T) {
	w := newRetail(t)
	stageSale(t, w)
	plan, err := w.PlanMinWork()
	if err != nil {
		t.Fatal(err)
	}
	script := w.Script(plan.Strategy)
	for _, want := range []string{"EXEC comp_SALES_BY_STORE_from_SALES;", "EXEC inst_SALES;", "update script"} {
		if !strings.Contains(script, want) {
			t.Errorf("script missing %q:\n%s", want, script)
		}
	}
}

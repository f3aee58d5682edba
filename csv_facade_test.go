package warehouse

import (
	"bytes"
	"strings"
	"testing"
)

func TestCSVFacadeEndToEnd(t *testing.T) {
	w := New()
	w.MustDefineBase("SALES", Schema{
		{Name: "sale_id", Kind: KindInt},
		{Name: "region", Kind: KindString},
		{Name: "amount", Kind: KindFloat},
	})
	w.MustDefineViewSQL("TOTALS", `
		SELECT region, SUM(amount) AS total FROM SALES GROUP BY region`)

	n, err := w.LoadCSV("SALES", strings.NewReader(
		"sale_id,region,amount\n1,west,10\n2,west,20\n3,east,5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("loaded %d rows", n)
	}
	if err := w.Refresh(); err != nil {
		t.Fatal(err)
	}

	// Stage a CSV change batch: void sale 1, add sale 4.
	d, err := w.StageDeltaCSV("SALES", strings.NewReader(
		"sale_id,region,amount,__count\n1,west,10,-1\n4,east,50,1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if d.PlusCount() != 1 || d.MinusCount() != 1 {
		t.Errorf("staged delta = +%d −%d", d.PlusCount(), d.MinusCount())
	}
	plan, err := w.PlanMinWork()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Execute(plan.Strategy, ModeSequential, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
	rows, err := w.Query("SELECT region, total FROM TOTALS ORDER BY region")
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].String() != "(east, 55)" || rows[1].String() != "(west, 20)" {
		t.Errorf("totals = %v", rows)
	}

	var buf bytes.Buffer
	if err := w.DumpCSV("TOTALS", &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "east,55") {
		t.Errorf("dump = %q", buf.String())
	}
	if err := w.DumpCSV("NOPE", &buf); err == nil {
		t.Errorf("unknown view accepted")
	}
	if _, err := w.LoadCSV("NOPE", strings.NewReader("")); err == nil {
		t.Errorf("unknown view accepted")
	}
	if _, err := w.StageDeltaCSV("NOPE", strings.NewReader("")); err == nil {
		t.Errorf("unknown view accepted")
	}
	if _, err := w.LoadCSV("SALES", strings.NewReader("bad")); err == nil {
		t.Errorf("bad csv accepted")
	}
	if _, err := w.StageDeltaCSV("SALES", strings.NewReader("bad")); err == nil {
		t.Errorf("bad delta csv accepted")
	}
}

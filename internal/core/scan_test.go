package core

import (
	"testing"

	"repro/internal/relation"
)

// scanWarehouse returns a warehouse whose base view R holds n rows (i, i)
// and whose summary view A, SUM(b) and COUNT(*) of R grouped on a, holds
// their n groups.
func scanWarehouse(tb testing.TB, n int) *Warehouse {
	tb.Helper()
	w := New(Options{})
	if err := w.DefineBase("R", schemaR); err != nil {
		tb.Fatal(err)
	}
	defineSQL(tb, w, "A", "SELECT r.a, SUM(r.b) AS total, COUNT(*) AS n FROM R r GROUP BY r.a")
	rows := make([]relation.Tuple, n)
	for i := range rows {
		rows[i] = intRow(int64(i), int64(i))
	}
	if err := w.LoadBase("R", rows); err != nil {
		tb.Fatal(err)
	}
	if err := w.RefreshAll(); err != nil {
		tb.Fatal(err)
	}
	return w
}

// TestSummaryViewScanAllocatesNoRow: a summary view's rows are its table's
// stored rows, so a Scan of 1 000 groups yields them without building a
// tuple a group: it allocates at most twice, whatever the group count.
func TestSummaryViewScanAllocatesNoRow(t *testing.T) {
	v := scanWarehouse(t, 1000).MustView("A")
	if v.Cardinality() != 1000 {
		t.Fatalf("A holds %d rows, want 1000", v.Cardinality())
	}
	var rows int64
	allocs := testing.AllocsPerRun(20, func() {
		v.Scan(func(relation.Tuple, int64) bool { rows++; return true })
	})
	if allocs > 2 {
		t.Fatalf("a Scan of %d groups allocated %v times, want at most 2", v.Cardinality(), allocs)
	}
	if rows != 21*v.Cardinality() {
		t.Fatalf("the scans yielded %d rows, want %d", rows, 21*v.Cardinality())
	}
}

// BenchmarkViewScan times one Scan of a view of 1 000 rows: the base view R
// and the summary view A of its 1 000 groups. It reports ns and
// allocations per row.
func BenchmarkViewScan(b *testing.B) {
	w := scanWarehouse(b, 1000)
	for _, name := range []string{"R", "A"} {
		b.Run(map[string]string{"R": "table", "A": "summary"}[name], func(b *testing.B) {
			v := w.MustView(name)
			rows := float64(v.Cardinality())
			var seen int64
			for i := 0; i < b.N; i++ {
				v.Scan(func(_ relation.Tuple, count int64) bool { seen += count; return true })
			}
			if seen != int64(b.N)*v.Cardinality() {
				b.Fatalf("the scans yielded %d rows, want %d", seen, int64(b.N)*v.Cardinality())
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
			b.ReportMetric(float64(testing.AllocsPerRun(1, func() { v.Scan(func(relation.Tuple, int64) bool { return true }) }))/rows, "allocs/row")
		})
	}
}

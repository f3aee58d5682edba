package core_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/tpcd"
)

// lineItems returns the LINEITEM rows tpcd generates at SF 0.004, the
// repository benchmark's scale.
func lineItems(tb testing.TB) []relation.Tuple {
	tb.Helper()
	tw, err := tpcd.NewWarehouse(tpcd.Config{SF: 0.004, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	var rows []relation.Tuple
	for _, r := range tw.W.MustView(tpcd.LineItem).SortedRows() {
		for c := int64(0); c < r.Count; c++ {
			rows = append(rows, r.Tuple)
		}
	}
	return rows
}

// loadLineItems loads rows into LINEITEM of a warehouse that defines only
// it, and returns the warehouse.
func loadLineItems(tb testing.TB, rows []relation.Tuple) *core.Warehouse {
	tb.Helper()
	w := core.New(core.Options{})
	if err := w.DefineBase(tpcd.LineItem, tpcd.Schemas()[tpcd.LineItem]); err != nil {
		tb.Fatal(err)
	}
	if err := w.LoadBase(tpcd.LineItem, rows); err != nil {
		tb.Fatal(err)
	}
	return w
}

// TestLoadBaseAllocations bounds what LoadBase allocates for LINEITEM at the
// repository benchmark's scale: each row is encoded once into a chunk that
// one string and one slab of values hold, so the load makes far fewer
// allocations than rows.
func TestLoadBaseAllocations(t *testing.T) {
	rows := lineItems(t)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	w := loadLineItems(t, rows)
	runtime.ReadMemStats(&m1)
	allocs := float64(m1.Mallocs-m0.Mallocs) / float64(len(rows))
	t.Logf("%d rows: %.3f allocations a row, %.0f bytes a row allocated", len(rows), allocs, float64(m1.TotalAlloc-m0.TotalAlloc)/float64(len(rows)))
	if allocs > 0.25 {
		t.Errorf("%.3f allocations per loaded row, want at most 0.25", allocs)
	}
	if got := w.MustView(tpcd.LineItem).Cardinality(); got != int64(len(rows)) {
		t.Errorf("LINEITEM holds %d rows after loading %d", got, len(rows))
	}
}

// TestLoadBaseRefusesAWrongWidthRow: a row of the wrong width refuses the
// whole load, which leaves the view as it was.
func TestLoadBaseRefusesAWrongWidthRow(t *testing.T) {
	rows := lineItems(t)[:3]
	w := loadLineItems(t, rows[:1])
	bad := append([]relation.Tuple{rows[1]}, rows[2][:3])
	if err := w.LoadBase(tpcd.LineItem, bad); err == nil {
		t.Fatal("a load with a row of 3 values in a table of width 7 was accepted")
	}
	if got := w.MustView(tpcd.LineItem).Cardinality(); got != 1 {
		t.Errorf("after the refused load LINEITEM holds %d rows, want the 1 loaded before", got)
	}
}

// BenchmarkLoadBase is LoadBase of LINEITEM at the repository benchmark's
// scale into a fresh warehouse. Run with -benchmem; it reports ns/row.
func BenchmarkLoadBase(b *testing.B) {
	rows := lineItems(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loadLineItems(b, rows)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*int64(len(rows))), "ns/row")
}

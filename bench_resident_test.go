package warehouse

import (
	"runtime"
	"testing"

	"repro/internal/tpcd"
)

// residentSF is the repository benchmark's TPC-D scale: about 24 000
// LINEITEM rows.
const residentSF = 0.004

// residentWindows is how many 1 % change windows run after set-up.
const residentWindows = 20

// BenchmarkResidentBytes is the live heap of the TPC-D warehouse at the
// repository benchmark's scale, served through the facade: after set-up
// (generated, loaded and refreshed, every summary view materialised) and
// after 20 windows of tpcd's change generator, each deleting 0.5 % of the
// changing base views' rows and inserting as many. Beside them is what one
// stored LINEITEM row costs: the live heap a load of its rows into a table
// of their own adds, per row. Every iteration builds its own warehouse; the
// metrics are the last one's.
func BenchmarkResidentBytes(b *testing.B) {
	var setup, windows, perRow float64
	for i := 0; i < b.N; i++ {
		before := liveHeap()
		tw, err := tpcd.NewWarehouse(tpcd.Config{SF: residentSF, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		w := FromCore(tw.W, CostModel{})
		setup = float64(liveHeap() - before)
		for k := 0; k < residentWindows; k++ {
			// tpcd stages on the core it was given; after a commit the
			// facade serves the window's clone.
			tw.W = w.Internal()
			spec := tpcd.Mixed(0.005, 0.005)
			spec.Seed = int64(k + 1)
			if _, err := tw.StageChanges(spec); err != nil {
				b.Fatal(err)
			}
			if _, err := w.RunWindow(MinWorkPlanner); err != nil {
				b.Fatal(err)
			}
		}
		windows = float64(liveHeap() - before)
		perRow = storedBytesPerRow(b, w, tpcd.LineItem)
	}
	b.ReportMetric(setup/1e6, "setup-MB")
	b.ReportMetric(windows/1e6, "windows-MB")
	b.ReportMetric(perRow, "lineitem-B/row")
}

// storedBytesPerRow loads view's rows into a warehouse that holds only them
// and returns the live heap that adds per row: the stored tuple, its key and
// its share of the table's buckets.
func storedBytesPerRow(b *testing.B, w *Warehouse, view string) float64 {
	b.Helper()
	counted, err := w.Rows(view)
	if err != nil {
		b.Fatal(err)
	}
	var rows []Tuple
	for _, r := range counted {
		for c := int64(0); c < r.Count; c++ {
			rows = append(rows, r.Tuple)
		}
	}
	schema, err := w.ViewSchema(view)
	if err != nil {
		b.Fatal(err)
	}
	probe := New()
	probe.MustDefineBase(view, schema)
	before := liveHeap()
	if err := probe.Load(view, rows); err != nil {
		b.Fatal(err)
	}
	added := liveHeap() - before
	runtime.KeepAlive(rows)
	runtime.KeepAlive(probe)
	return float64(added) / float64(len(rows))
}

// liveHeap collects garbage and returns the bytes still allocated.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

package snapshot

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/tpcd"
)

// tpcdSnapshot builds the TPC-D warehouse at sf and returns it with its
// snapshot and the number of rows and groups the snapshot stores.
func tpcdSnapshot(tb testing.TB, sf float64) (*core.Warehouse, []byte, int64) {
	tb.Helper()
	tw, err := tpcd.NewWarehouse(tpcd.Config{SF: sf, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	var stored int64
	for _, name := range tw.W.ViewNames() {
		stored += tw.W.MustView(name).Table().DistinctCount()
	}
	return tw.W, snapshotOf(tb, tw.W), stored
}

// memStats collects garbage and reads the allocator's counters.
func memStats() runtime.MemStats {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// TestLoadSnapshotAllocations bounds what reading the TPC-D snapshot at the
// repository benchmark's scale allocates, into a clone of the warehouse it
// was taken from as LoadSnapshot does: a stored row is decoded into a slab
// its chunk shares and keyed by a substring of one string, so the load
// makes far fewer allocations than rows and allocates little beyond the
// state it leaves.
func TestLoadSnapshotAllocations(t *testing.T) {
	w, snap, stored := tpcdSnapshot(t, 0.004)
	next := w.Clone()
	before := memStats()
	if err := Read(next, bytes.NewReader(snap)); err != nil {
		t.Fatal(err)
	}
	after := memStats()
	runtime.KeepAlive(next)
	runtime.KeepAlive(snap) // the live heap is the restored state alone
	allocs := float64(after.Mallocs-before.Mallocs) / float64(stored)
	live := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / live
	t.Logf("%d stored rows, %d snapshot bytes: %.3f allocations a row, %.2f× the %.2f MB live heap the load leaves allocated",
		stored, len(snap), allocs, ratio, live/1e6)
	if allocs > 0.25 {
		t.Errorf("%.3f allocations per stored row, want at most 0.25", allocs)
	}
	if ratio > 1.5 {
		t.Errorf("allocated %.2f× the live heap the load leaves, want at most 1.5×", ratio)
	}
	for _, name := range w.ViewNames() {
		if next.MustView(name).Digest() != w.MustView(name).Digest() {
			t.Errorf("view %s restored differs from the view written", name)
		}
	}
}

// TestWriteSnapshotAllocations bounds what writing the TPC-D snapshot at
// the repository benchmark's scale allocates: every frame is encoded in
// place into one buffer the writer reuses, so the write allocates less than
// the bytes it writes.
func TestWriteSnapshotAllocations(t *testing.T) {
	w, snap, _ := tpcdSnapshot(t, 0.004)
	before := memStats()
	if err := Write(w, io.Discard); err != nil {
		t.Fatal(err)
	}
	after := memStats()
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(snap))
	t.Logf("writing %d bytes allocated %.2f× as many in %d allocations", len(snap), ratio, after.Mallocs-before.Mallocs)
	if ratio > 1 {
		t.Errorf("writing the snapshot allocated %.2f× the bytes it wrote, want at most 1×", ratio)
	}
}

// BenchmarkLoadSnapshot reads the TPC-D snapshot at two scales into a clone
// of the warehouse it was taken from. Run with -benchmem; it reports MB/s
// of snapshot read and allocations per stored row.
func BenchmarkLoadSnapshot(b *testing.B) {
	for _, sf := range []float64{0.004, 0.01} {
		b.Run(fmt.Sprintf("sf=%g", sf), func(b *testing.B) {
			w, snap, stored := tpcdSnapshot(b, sf)
			b.SetBytes(int64(len(snap)))
			b.ResetTimer()
			var mallocs uint64
			for i := 0; i < b.N; i++ {
				next := w.Clone()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				m0 := ms.Mallocs
				if err := Read(next, bytes.NewReader(snap)); err != nil {
					b.Fatal(err)
				}
				runtime.ReadMemStats(&ms)
				mallocs += ms.Mallocs - m0
			}
			b.ReportMetric(float64(mallocs)/float64(int64(b.N)*stored), "allocs/row")
		})
	}
}

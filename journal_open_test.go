package warehouse

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/journal"
	"repro/internal/strategy"
)

// servedStrategy is the shape of a serve-ingest window's strategy: the retail
// catalog's four views over its two bases, maintained and installed.
var servedStrategy = strategy.Strategy{
	strategy.Comp{View: "SALES_BY_STORE", Over: []string{"SALES"}},
	strategy.Comp{View: "WATERMARK", Over: []string{"SALES"}},
	strategy.Inst{View: "SALES"},
	strategy.Comp{View: "REGION_TOTALS", Over: []string{"SALES_BY_STORE"}},
	strategy.Comp{View: "STORE_TOTALS", Over: []string{"SALES_BY_STORE"}},
	strategy.Inst{View: "SALES_BY_STORE"},
	strategy.Inst{View: "REGION_TOTALS"},
	strategy.Inst{View: "STORE_TOTALS"},
	strategy.Inst{View: "WATERMARK"},
}

// servedJournal writes a journal shaped as serve-ingest's: windows windows,
// each installing the 10 accepts of rows rows each that arrived before it.
// With inflight set, 15 more accepts follow, the last window begins naming
// the first 10 of them and never closes. It returns the file's bytes.
func servedJournal(tb testing.TB, path string, windows, rows int, inflight bool) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := journal.NewWriter(&buf)
	accept := func(n int) journal.Range {
		var r journal.Range
		for i := 0; i < n; i++ {
			batch := make([]journal.RowChange, rows)
			for k := range batch {
				batch[k] = journal.RowChange{Key: fmt.Sprintf("sale %012d of store %06d east", i*rows+k, k), Count: 1}
			}
			a, _, err := w.Accept(journal.AcceptRecord{UnixNano: int64(i + 1), Batch: []journal.ViewBatch{{View: "SALES", Rows: batch}}})
			if err != nil {
				tb.Fatal(err)
			}
			if r.Lo == 0 {
				r.Lo = a.Seq
			}
			r.Hi = a.Seq
		}
		return r
	}
	begin := func(seq int, r journal.Range) {
		if err := w.Begin(journal.BeginRecord{Seq: seq, Planner: "minwork", Mode: "dag", Workers: 2, Strategy: servedStrategy, Accepts: r}); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 1; i <= windows; i++ {
		begin(i, accept(10))
		steps := make([]journal.StepRecord, len(servedStrategy))
		for k, e := range servedStrategy {
			steps[k] = journal.StepRecord{Key: e.Key(), Work: int64(rows * 10)}
		}
		if err := w.Commit(journal.CommitRecord{TotalWork: int64(rows * 100), ElapsedNS: 1, UnixNano: int64(i), Steps: steps}); err != nil {
			tb.Fatal(err)
		}
	}
	if inflight {
		r := accept(15)
		begin(windows+1, journal.Range{Lo: r.Lo, Hi: r.Lo + 9})
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// openCost returns the fewest objects and bytes one OpenJournal+Close of
// path allocated, over three tries.
func openCost(tb testing.TB, path string) (objects, allocated uint64) {
	tb.Helper()
	objects, allocated = ^uint64(0), ^uint64(0)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		j, err := OpenJournal(path)
		if err == nil {
			err = j.Close()
		}
		runtime.ReadMemStats(&after)
		if err != nil {
			tb.Fatal(err)
		}
		objects = min(objects, after.Mallocs-before.Mallocs)
		allocated = min(allocated, after.TotalAlloc-before.TotalAlloc)
	}
	return objects, allocated
}

// TestOpenJournalHoldsItsTail is the gate of the streaming reader: reopening
// a serve-ingest-shaped journal of 1 000 windows — closed, or ending in an
// in-flight window with pending accepts — allocates at most half the file's
// bytes and 50 objects a window (a reader that holds the file and every
// window's rows allocates three times the file and 261 a window), doubling
// every accept's rows moves the object count by at most 5 %, and what the
// reopened journal reports is what ReadLog, which keeps every window, reads.
func TestOpenJournalHoldsItsTail(t *testing.T) {
	const windows = 1000
	dir := t.TempDir()
	for _, inflight := range []bool{false, true} {
		name := map[bool]string{false: "closed", true: "in-flight"}[inflight]
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, name+".journal")
			image := servedJournal(t, path, windows, 20, inflight)
			objects, allocated := openCost(t, path)
			t.Logf("%d windows, %.1f MB: %d objects (%.1f a window), %.2f MB allocated (%.2f× the file)",
				windows, float64(len(image))/1e6, objects, float64(objects)/windows, float64(allocated)/1e6, float64(allocated)/float64(len(image)))
			if float64(allocated) > 0.5*float64(len(image)) {
				t.Errorf("reopening allocated %d bytes, more than half the file's %d", allocated, len(image))
			}
			if objects > 50*windows {
				t.Errorf("reopening allocated %d objects, more than 50 a window", objects)
			}

			j, err := OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			lg, err := journal.ReadLog(bytes.NewReader(image))
			if err != nil {
				t.Fatal(err)
			}
			if j.Committed() != lg.CommittedCount() || j.NeedsRecovery() != (lg.InFlight() != nil) || j.NeedsRecovery() != inflight {
				t.Errorf("reopened: %d committed, needs recovery %v; ReadLog: %d committed, in flight %v",
					j.Committed(), j.NeedsRecovery(), lg.CommittedCount(), lg.InFlight() != nil)
			}
			if got, want := j.Pending(), lg.Pending(); !reflect.DeepEqual(got, want) || len(got) != map[bool]int{false: 0, true: 15}[inflight] {
				t.Errorf("reopened, %d accepts pending; ReadLog, %d", len(got), len(want))
			}
			if inflight && !reflect.DeepEqual(j.inflight, lg.InFlight()) {
				t.Errorf("the reopened in-flight window differs from ReadLog's")
			}
		})
	}
	t.Run("doubled rows", func(t *testing.T) {
		path := filepath.Join(dir, "closed.journal")
		single, _ := openCost(t, path)
		path = filepath.Join(dir, "doubled.journal")
		servedJournal(t, path, windows, 40, false)
		doubled, _ := openCost(t, path)
		t.Logf("%d objects with 20 rows an accept, %d with 40", single, doubled)
		if float64(doubled) > 1.05*float64(single) {
			t.Errorf("doubling every accept's rows took reopening from %d objects to %d", single, doubled)
		}
	})
}

// TestOpenJournalSetUpAllocations: opening a journal that holds nothing —
// what every set-up round of the benchmark does — costs what it cost before
// the file was read through a buffer: a new path at most 11 objects and
// 1 KiB, an empty file at most 7 objects.
func TestOpenJournalSetUpAllocations(t *testing.T) {
	dir := t.TempDir()
	for i, path := range []string{filepath.Join(dir, "new.journal"), filepath.Join(dir, "empty.journal")} {
		if i == 1 {
			if err := os.WriteFile(path, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var err error
		open := func() {
			j, oerr := OpenJournal(path)
			if oerr == nil {
				oerr = j.Close()
			}
			if i == 0 {
				oerr = errors.Join(oerr, os.Remove(path))
			}
			if oerr != nil {
				err = oerr
			}
		}
		const runs = 20
		var before, after runtime.MemStats
		allocs := testing.AllocsPerRun(runs, open)
		runtime.ReadMemStats(&before)
		for range runs {
			open()
		}
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		allocated := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("%s: %.0f allocations, %d bytes", filepath.Base(path), allocs, allocated)
		if limit := []float64{11, 7}[i]; allocs > limit {
			t.Errorf("%s: OpenJournal+Close made %.0f allocations, more than %.0f", filepath.Base(path), allocs, limit)
		}
		if i == 0 && allocated > 1<<10 {
			t.Errorf("%s: OpenJournal+Close allocated %d bytes, more than 1 KiB", filepath.Base(path), allocated)
		}
	}
}

// BenchmarkOpenJournal reopens the serve-ingest-shaped journal of 1 000
// windows, each installing 10 accepts of 20 rows (≈ 8.6 MB): MB/s, B/op and
// allocs/op of the read a restart makes.
func BenchmarkOpenJournal(b *testing.B) {
	path := filepath.Join(b.TempDir(), "served.journal")
	image := servedJournal(b, path, 1000, 20, false)
	b.SetBytes(int64(len(image)))
	b.ReportAllocs()
	for b.Loop() {
		j, err := OpenJournal(path)
		if err != nil {
			b.Fatal(err)
		}
		if err := j.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRestoreChangesNothingOnAFormatError: Restore reads the journal through
// before it applies a window, so a CRC-valid record that does not decode,
// behind two committed windows, is refused with the warehouse's state and
// epoch as they were — while the same journal without it restores both.
func TestRestoreChangesNothingOnAFormatError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wh.journal")
	w := newRetail(t)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range []func(*testing.T, *Warehouse){stageSale, stageSale2} {
		stage(t, w)
		if _, err := w.RunWindowOpts(WindowOptions{Journal: j}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	whole, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer whole.Close()
	restored := newRetail(t)
	if err := restored.Restore(whole); err != nil || restored.StateDigest() != w.StateDigest() {
		t.Fatalf("the journal of two windows restores to %016x, the warehouse that ran them is at %016x: %v", restored.StateDigest(), w.StateDigest(), err)
	}

	corrupt, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer corrupt.Close()
	frame, body := journal.BeginFrame(nil)
	frame = append(frame, 0, 0, 0, 0) // an accept numbered 0, of no view
	frame, start := journal.EndFrame(frame, journal.TypeAccept, body)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame[start:]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	fresh := newRetail(t)
	digest, epoch := fresh.StateDigest(), fresh.Epoch()
	if err := fresh.Restore(corrupt); err == nil {
		t.Fatal("Restore took a journal with an accept numbered 0")
	}
	if fresh.StateDigest() != digest || fresh.Epoch() != epoch {
		t.Fatalf("the refused Restore moved the warehouse from %016x at epoch %d to %016x at epoch %d",
			digest, epoch, fresh.StateDigest(), fresh.Epoch())
	}
}

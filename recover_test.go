package warehouse

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/journal/journaltest"
)

// rowsOf snapshots a view's rows for comparison.
func rowsOf(t *testing.T, w *Warehouse, view string) []CountedRow {
	t.Helper()
	rows, err := w.Rows(view)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func sameRows(a, b []CountedRow) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Count != b[i].Count || a[i].Tuple.String() != b[i].Tuple.String() {
			return false
		}
	}
	return true
}

// TestRunWindowOptsJournaled: a journaled window commits, matches the
// legacy path's result, and the journal accumulates committed windows.
func TestRunWindowOptsJournaled(t *testing.T) {
	ref := newRetail(t)
	stageSale(t, ref)
	if _, err := ref.RunWindow(MinWorkPlanner); err != nil {
		t.Fatal(err)
	}

	w := newRetail(t)
	stageSale(t, w)
	j, err := OpenJournal(filepath.Join(t.TempDir(), "wh.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	rep, err := w.RunWindowOpts(WindowOptions{Journal: j, Mode: ModeDAG, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempts != 1 || rep.Recovered || rep.Recomputed {
		t.Fatalf("window report flags: %+v", rep)
	}
	if j.Committed() != 1 || j.NeedsRecovery() {
		t.Fatalf("journal: committed=%d needsRecovery=%v", j.Committed(), j.NeedsRecovery())
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
	for _, v := range ref.Views() {
		if !sameRows(rowsOf(t, ref, v), rowsOf(t, w, v)) {
			t.Fatalf("%s differs from the legacy window's result", v)
		}
	}
	// A second window through the same journal.
	stageSale2(t, w)
	if _, err := w.RunWindowOpts(WindowOptions{Journal: j}); err != nil {
		t.Fatal(err)
	}
	if j.Committed() != 2 {
		t.Fatalf("journal committed = %d after two windows", j.Committed())
	}
	if n := w.Tally().Committed; n != 2 {
		t.Fatalf("tally has %d windows", n)
	}
}

// stageSale2 stages a second, different change batch.
func stageSale2(t *testing.T, w *Warehouse) {
	t.Helper()
	d, err := w.NewDelta("SALES")
	if err != nil {
		t.Fatal(err)
	}
	d.Add(Tuple{Int(104), Int(1), Float(7)}, 1)
	if err := w.StageDelta("SALES", d); err != nil {
		t.Fatal(err)
	}
}

// TestRunWindowOptsDegradation: persistent step failures climb the whole
// ladder — the DAG attempt, its two retries, one sequential attempt — to the
// recompute fallback, which still produces the correct state.
func TestRunWindowOptsDegradation(t *testing.T) {
	ref := newRetail(t)
	stageSale(t, ref)
	if _, err := ref.RunWindow(MinWorkPlanner); err != nil {
		t.Fatal(err)
	}

	w := newRetail(t)
	stageSale(t, w)
	inj := NewFaultInjector(3)
	inj.SetProbability("step", 1)
	rep, err := w.RunWindowOpts(WindowOptions{Mode: ModeDAG, Workers: 4, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Recomputed || rep.Mode != ModeRecompute || !rep.FellBackSequential || rep.Attempts != 5 {
		t.Fatalf("expected recompute fallback after five attempts, got %+v", rep)
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
	for _, v := range ref.Views() {
		if !sameRows(rowsOf(t, ref, v), rowsOf(t, w, v)) {
			t.Fatalf("%s differs after recompute fallback", v)
		}
	}
}

// TestOperatorWindowRetriesInPlace: an operator's window that sets nothing
// but its faults and its journal climbs the same ladder as the ingester's: one
// transient step failure costs one in-place retry, and the journal holds the
// failed attempt's abort and then the commit, under one sequence number.
func TestOperatorWindowRetriesInPlace(t *testing.T) {
	ref := newRetail(t)
	stageSale(t, ref)
	if _, err := ref.RunWindow(MinWorkPlanner); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "wh.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	w := newRetail(t)
	stageSale(t, w)
	inj := NewFaultInjector(1)
	inj.FailAt("step", 2)
	rep, err := w.RunWindowOpts(WindowOptions{Faults: inj, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if rep.Attempts != 2 || rep.FellBackSequential || rep.Recomputed {
		t.Fatalf("one transient fault: %d attempts (sequential %v, recomputed %v), want 2 in place", rep.Attempts, rep.FellBackSequential, rep.Recomputed)
	}
	for _, v := range ref.Views() {
		if !sameRows(rowsOf(t, ref, v), rowsOf(t, w, v)) {
			t.Fatalf("%s differs from the uninterrupted window's result", v)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lg, err := journal.ReadLog(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(lg.Windows) != 2 || lg.Windows[0].Abort == nil || !lg.Windows[1].Committed() {
		t.Fatalf("journal holds %d windows; want an abort, then a commit", len(lg.Windows))
	}
	if a, b := lg.Windows[0].Begin.Seq, lg.Windows[1].Begin.Seq; a != 1 || b != 1 {
		t.Fatalf("the attempts are windows %d and %d; want one sequence number, 1", a, b)
	}
}

// TestCrashAndRecoverThroughFacade: a crash-class fault mid-window leaves
// the journal in-flight and the warehouse untouched; a fresh process
// (rebuilt warehouse + reopened journal) recovers to the exact state an
// uninterrupted window produces.
func TestCrashAndRecoverThroughFacade(t *testing.T) {
	ref := newRetail(t)
	stageSale(t, ref)
	if _, err := ref.RunWindow(MinWorkPlanner); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "wh.journal")
	w := newRetail(t)
	stageSale(t, w)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	inj := NewFaultInjector(1)
	inj.CrashAt("step", 2)
	_, err = w.RunWindowOpts(WindowOptions{Journal: j, Faults: inj})
	if err == nil {
		t.Fatal("crashed window reported success")
	}
	// The in-memory warehouse is untouched: the batch is still pending.
	if len(w.Pending()) == 0 {
		t.Fatal("crashed window consumed the staged batch")
	}
	// The handle refuses further work and in-handle recovery.
	if !j.NeedsRecovery() {
		t.Fatal("crashed handle does not report recovery needed")
	}
	if _, err := w.RunWindowOpts(WindowOptions{Journal: j}); !errors.Is(err, ErrRecoveryNeeded) {
		t.Fatalf("window after crash: %v", err)
	}
	if _, err := w.Recover(j); err == nil {
		t.Fatal("stale handle recovery accepted")
	}
	j.Close()

	// "Restart": reopen the journal, rebuild the pre-window warehouse.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if !j2.NeedsRecovery() {
		t.Fatal("reopened journal does not show the in-flight window")
	}
	w2 := newRetail(t)
	rep, err := w2.Recover(j2)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Recovered {
		t.Fatalf("recovered window not flagged: %+v", rep)
	}
	if err := w2.Verify(); err != nil {
		t.Fatal(err)
	}
	for _, v := range ref.Views() {
		if !sameRows(rowsOf(t, ref, v), rowsOf(t, w2, v)) {
			t.Fatalf("%s differs from the uninterrupted window's result", v)
		}
	}
	if j2.Committed() != 1 || j2.NeedsRecovery() {
		t.Fatalf("journal after recovery: committed=%d needsRecovery=%v", j2.Committed(), j2.NeedsRecovery())
	}
	// Recovered warehouse keeps working: run the next window through the
	// same journal.
	stageSale2(t, w2)
	if _, err := w2.RunWindowOpts(WindowOptions{Journal: j2, Mode: ModeDAG}); err != nil {
		t.Fatal(err)
	}
	if j2.Committed() != 2 {
		t.Fatalf("journal committed = %d after post-recovery window", j2.Committed())
	}
}

// TestRecoverAfterTornJournalTail: step records are not synced one by one,
// so power loss can leave an in-flight window whose last step record is cut
// short. Reopening cuts the torn frame off; recovery re-executes that step,
// and the commit it appends is there for the next process to read.
func TestRecoverAfterTornJournalTail(t *testing.T) {
	ref := newRetail(t)
	stageSale(t, ref)
	if _, err := ref.RunWindow(MinWorkPlanner); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "wh.journal")
	w := newRetail(t)
	stageSale(t, w)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	inj := NewFaultInjector(1)
	inj.CrashAt("step", 3)
	if _, err := w.RunWindowOpts(WindowOptions{Journal: j, Faults: inj}); err == nil {
		t.Fatal("crashed window reported success")
	}
	j.Close()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-5); err != nil { // inside the last step record
		t.Fatal(err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if !j2.NeedsRecovery() {
		t.Fatal("reopened journal does not show the in-flight window")
	}
	w2 := newRetail(t)
	if _, err := w2.Recover(j2); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	for _, v := range ref.Views() {
		if !sameRows(rowsOf(t, ref, v), rowsOf(t, w2, v)) {
			t.Fatalf("%s differs from the uninterrupted window's result", v)
		}
	}

	j3, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if j3.Committed() != 1 || j3.NeedsRecovery() {
		t.Fatalf("journal read back after recovery: committed=%d needsRecovery=%v", j3.Committed(), j3.NeedsRecovery())
	}
}

// TestRunWindowOptsTimeout: an already-expired deadline stops the window
// before it mutates anything.
func TestRunWindowOptsTimeout(t *testing.T) {
	w := newRetail(t)
	stageSale(t, w)
	_, err := w.RunWindowOpts(WindowOptions{Mode: ModeDAG, Timeout: time.Nanosecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if len(w.Pending()) == 0 {
		t.Fatal("timed-out window consumed the staged batch")
	}
	// Without the timeout the same window succeeds.
	if _, err := w.RunWindowOpts(WindowOptions{Mode: ModeDAG}); err != nil {
		t.Fatal(err)
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestJournalCloseReportsSuspectTail: a window whose begin record's flush
// fails — after Begin has returned, while its steps run — is refused its
// commit and leaves the serving state alone; a caller that only closes the
// journal afterwards learns from Close that its tail is suspect. A healthy
// journal closes clean.
func TestJournalCloseReportsSuspectTail(t *testing.T) {
	boom := errors.New("disk on fire")
	disk := &journaltest.Disk{BeforeSync: func(int) error { return boom }}
	w := newRetail(t)
	stageSale(t, w)
	before := w.StateDigest()
	j := NewJournal(disk)
	if _, err := w.RunWindowOpts(WindowOptions{Journal: j}); !errors.Is(err, boom) {
		t.Fatalf("window over a journal whose begin flush fails: %v", err)
	}
	if w.StateDigest() != before || len(w.Pending()) == 0 || j.Committed() != 0 {
		t.Fatal("the refused window reached the serving state")
	}
	if err := j.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close hid the failed flush: %v", err)
	}

	healthy, err := OpenJournal(filepath.Join(t.TempDir(), "wh.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.RunWindowOpts(WindowOptions{Journal: healthy}); err != nil {
		t.Fatal(err)
	}
	if err := healthy.Close(); err != nil {
		t.Fatalf("Close of a healthy journal: %v", err)
	}
	if err := healthy.Close(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("second Close reports %v, want the file's own error", err)
	}
}

package journal

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/journal/journaltest"
)

// heldDisk returns a disk whose first Sync — the begin record's flush of the
// first window written to it — does not return until release is called, and
// then returns fail.
func heldDisk(fail error) (d *journaltest.Disk, release func()) {
	d = &journaltest.Disk{}
	return d, d.Hold(0, fail)
}

// stillBlocked fails the test if done is signalled while the begin flush is
// held: whatever signals it was supposed to wait for the flush.
func stillBlocked(t *testing.T, what string, done <-chan error) {
	t.Helper()
	select {
	case err := <-done:
		t.Fatalf("%s returned (%v) while the begin record's flush had not", what, err)
	case <-time.After(20 * time.Millisecond):
	}
}

// TestBeginFlushOverlapsSteps is the writer's ordering contract: Begin
// returns with its flush still running, step frames land beside it — from
// several goroutines, as DAG workers append them — and Commit writes nothing
// until the flush has returned.
func TestBeginFlushOverlapsSteps(t *testing.T) {
	d, release := heldDisk(nil)
	defer release()
	w := NewWriter(d)
	if err := w.Begin(testBegin()); err != nil { // hangs here if Begin waits for its flush
		t.Fatal(err)
	}
	begun := d.Now()
	if begun.Durable != 0 || d.Syncs() != 0 {
		t.Fatalf("the held flush has completed: %+v, %d syncs", begun, d.Syncs())
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if err := w.Step(StepRecord{Index: g*8 + i, Key: "C:V:A", Work: int64(i)}); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
	stepped := d.Now()
	if stepped.Written <= begun.Written || stepped.Durable != 0 {
		t.Fatalf("after 32 steps beside the held flush: %+v (begin ended at %d)", stepped, begun.Written)
	}

	committed := make(chan error, 1)
	go func() { committed <- w.Commit(CommitRecord{TotalWork: 1}) }()
	stillBlocked(t, "Commit", committed)
	if now := d.Now(); now != stepped {
		t.Fatalf("Commit touched the file before the begin flush returned: %+v, was %+v", now, stepped)
	}
	release()
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
	if now := d.Now(); d.Syncs() != 2 || now.Durable != now.Written {
		t.Fatalf("after commit: %d syncs, %+v", d.Syncs(), now)
	}
	// The disk's own history agrees: the commit frame was written at a
	// moment when the begin record was already durable.
	for _, m := range d.Moments() {
		if m.Written > stepped.Written && m.Durable < begun.Written {
			t.Fatalf("commit frame on the disk with %d of the begin record's %d bytes durable", m.Durable, begun.Written)
		}
	}
	lg, err := ReadLog(bytes.NewReader(d.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(lg.Windows) != 1 || !lg.Windows[0].Committed() || len(lg.Windows[0].Steps) != 32 || lg.Truncated {
		t.Fatalf("log shape: %d windows, truncated=%v", len(lg.Windows), lg.Truncated)
	}
}

// TestFailedBeginFlushIsSticky: the begin record's flush fails after Begin
// has returned. The failure surfaces from Commit as the sticky error, no
// commit frame is written — the window stays in flight, as it does when the
// blocking flush of a commit record fails — and every later append reports
// it too.
func TestFailedBeginFlushIsSticky(t *testing.T) {
	boom := errors.New("disk on fire")
	d, release := heldDisk(boom)
	w := NewWriter(d)
	if err := w.Begin(testBegin()); err != nil {
		t.Fatal(err)
	}
	if err := w.Step(StepRecord{Index: 0, Key: "C:V:A"}); err != nil {
		t.Fatal(err)
	}
	before := d.Now()
	release()
	err := w.Commit(CommitRecord{TotalWork: 1})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "journal: sync") {
		t.Fatalf("Commit after a failed begin flush: %v", err)
	}
	if !errors.Is(w.Err(), boom) {
		t.Fatalf("sticky error: %v", w.Err())
	}
	if now := d.Now(); now != before {
		t.Fatalf("a closing record was written after its begin record's flush failed: %+v, was %+v", now, before)
	}
	for what, err := range map[string]error{
		"Abort": w.Abort(AbortRecord{Reason: "x"}),
		"Begin": w.Begin(testBegin()),
		"Step":  w.Step(StepRecord{Index: 1, Key: "C:V:A"}),
		"Wait":  w.Wait(),
	} {
		if !errors.Is(err, boom) {
			t.Errorf("%s after the failure: %v", what, err)
		}
	}
	if now := d.Now(); now != before {
		t.Fatalf("appends after the sticky error reached the file: %+v, was %+v", now, before)
	}
}

// TestWaitLeavesNothingInFlight: a window that ends with neither commit nor
// abort (a crash-class return) is followed by Wait, after which the file
// holds the begin record, durable, and every step record whole — an
// in-flight window, and no goroutine still using the file.
func TestWaitLeavesNothingInFlight(t *testing.T) {
	d, release := heldDisk(nil)
	defer release()
	w := NewWriter(d)
	if err := w.Wait(); err != nil {
		t.Fatalf("Wait on a writer that never began a window: %v", err)
	}
	if err := w.Begin(testBegin()); err != nil {
		t.Fatal(err)
	}
	begun := d.Now().Written
	for i := 0; i < 3; i++ {
		if err := w.Step(StepRecord{Index: i, Key: "C:V:A"}); err != nil {
			t.Fatal(err)
		}
	}
	waited := make(chan error, 1)
	go func() { waited <- w.Wait() }()
	stillBlocked(t, "Wait", waited)
	release()
	if err := <-waited; err != nil {
		t.Fatal(err)
	}
	if now := d.Now(); d.Syncs() != 1 || now.Durable < begun {
		t.Fatalf("after Wait: %d syncs, %+v, begin record ends at %d", d.Syncs(), now, begun)
	}
	lg, err := ReadLog(bytes.NewReader(d.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if wl := lg.InFlight(); wl == nil || len(wl.Steps) != 3 || lg.Truncated {
		t.Fatalf("log after Wait: in-flight=%v truncated=%v", wl != nil, lg.Truncated)
	}
	if err := w.Wait(); err != nil { // a second Wait finds the flush done
		t.Fatal(err)
	}
}

// TestSyncPastTheEndReturns: Sync asked for more than was written makes
// what was written durable and returns, with one sync.
func TestSyncPastTheEndReturns(t *testing.T) {
	d := &journaltest.Disk{}
	w := NewWriter(d)
	_, end, err := w.Accept(AcceptRecord{UnixNano: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- w.Sync(end + 100) }()
	select {
	case err := <-done:
		if err != nil || d.Syncs() != 1 || d.Now().Durable != int(end) {
			t.Fatalf("Sync past the end: %v, %d syncs, %+v", err, d.Syncs(), d.Now())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Sync past the end of what was written does not return")
	}
}

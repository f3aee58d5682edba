package warehouse

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/journal"
)

// These tests pin down the facade's thread-safety contract (see the
// Warehouse doc comment): readers are safe concurrently with windows, a
// window commit is an atomic epoch flip, and an aborted window leaves the
// serving epoch untouched. Run them under -race.

// stageEastSale stages one insert into SALES for store 2 (east).
func stageEastSale(t *testing.T, w *Warehouse, id int64) {
	t.Helper()
	d, err := w.NewDelta("SALES")
	if err != nil {
		t.Fatal(err)
	}
	d.Add(Tuple{Int(id), Int(2), Float(50)}, 1)
	if err := w.StageDelta("SALES", d); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentQueriesDuringWindows: readers race window commits across
// sequential, staged and DAG windows. Every query
// sees exactly a published state — the east total is always one of the
// per-epoch values, never a blend — and epochs are monotonic per reader, and
// so is the tally of committed windows they read beside them.
func TestConcurrentQueriesDuringWindows(t *testing.T) {
	w := newRetail(t)
	const windows = 9

	valid := map[string]bool{"(east, 5, 1)": true}
	for i := 1; i <= windows; i++ {
		valid[fmt.Sprintf("(east, %d, %d)", 5+50*i, 1+i)] = true
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			var committed int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := w.Tally().Committed
				if n < committed {
					t.Errorf("the tally went backwards: %d committed after %d", n, committed)
					return
				}
				committed = n
				rows, epoch, err := w.QueryEpoch(
					"SELECT region, SUM(amount) AS total, COUNT(*) AS n FROM SALES_BY_STORE GROUP BY region ORDER BY region LIMIT 1")
				if err != nil {
					t.Error(err)
					return
				}
				if epoch < last {
					t.Errorf("epoch went backwards: %d after %d", epoch, last)
					return
				}
				last = epoch
				if got := rows[0].String(); !valid[got] {
					t.Errorf("blended east total %s at epoch %d", got, epoch)
					return
				}
			}
		}()
	}

	for i := 0; i < windows; i++ {
		stageEastSale(t, w, int64(200+i))
		var err error
		switch i % 3 {
		case 0:
			_, err = w.RunWindow(MinWorkPlanner)
		case 1:
			_, err = w.RunWindowOpts(WindowOptions{Mode: ModeStaged})
		default:
			_, err = w.RunWindowOpts(WindowOptions{Mode: ModeDAG})
		}
		if err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if got, tally := w.Epoch(), w.Tally(); got != windows+1 || tally.Committed != windows {
		t.Errorf("after %d windows: epoch %d, tally %+v", windows, got, tally)
	}
	if err := w.Verify(); err != nil {
		t.Error(err)
	}
}

// TestPinnedEpochMultiViewConsistency: a pin taken before a window keeps a
// mutually consistent pair of views (the join and the aggregate over it)
// while windows commit underneath; retired epochs are collected once
// unpinned.
func TestPinnedEpochMultiViewConsistency(t *testing.T) {
	w := newRetail(t)
	p := w.PinEpoch()
	defer p.Close()

	for i := 0; i < 3; i++ {
		stageEastSale(t, w, int64(300+i))
		if _, err := w.RunWindowOpts(WindowOptions{}); err != nil {
			t.Fatal(err)
		}
	}

	detail, err := p.Size("SALES_BY_STORE")
	if err != nil {
		t.Fatal(err)
	}
	summary, err := p.Rows("REGION_TOTALS")
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, r := range summary {
		n += r.Tuple[2].Int()
	}
	if detail != 3 || n != 3 {
		t.Fatalf("pinned pair diverged: detail=%d, summary count=%d", detail, n)
	}
	if w.LiveEpochs() != 2 {
		t.Fatalf("live epochs with one old pin = %d", w.LiveEpochs())
	}
	p.Close()
	if w.LiveEpochs() != 1 {
		t.Fatalf("live epochs after unpin = %d", w.LiveEpochs())
	}
	if rows, _ := w.Rows("SALES_BY_STORE"); int64(len(rows)) != 6 {
		t.Fatalf("current epoch rows = %d", len(rows))
	}
}

// TestCloneRacesWindows: Clone (a reader that snapshots the whole
// warehouse) races windows and staging; every clone is internally
// consistent and verifies against recomputation.
func TestCloneRacesWindows(t *testing.T) {
	w := newRetail(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	clones := make(chan *Warehouse, 64)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				close(clones)
				return
			default:
			}
			select {
			case clones <- w.Clone():
			default:
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for c := range clones {
			if err := c.Verify(); err != nil {
				t.Errorf("clone failed verification: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 6; i++ {
		stageEastSale(t, w, int64(400+i))
		if _, err := w.RunWindowOpts(WindowOptions{Mode: ModeDAG}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestFollowerQueriesDuringReplay: the replication leg. A leader runs
// windows journaled into a buffer; a follower replays the shipped windows
// through ApplyWindow (the same path internal/replicate's follower drives)
// while readers hammer its /query surface. Every read on the follower sees
// exactly a state the leader committed — never a blend — and epochs are
// monotonic per reader (read-your-epoch holds across replicated flips).
func TestFollowerQueriesDuringReplay(t *testing.T) {
	const windows = 9
	leader := newRetail(t)
	var buf bytes.Buffer
	j := NewJournal(&buf)
	for i := 0; i < windows; i++ {
		stageEastSale(t, leader, int64(600+i))
		if _, err := leader.RunWindowOpts(WindowOptions{Mode: ModeDAG, Journal: j}); err != nil {
			t.Fatal(err)
		}
	}
	lg, err := journal.ReadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := lg.CommittedCount(); got != windows {
		t.Fatalf("leader journal holds %d committed windows", got)
	}

	valid := map[string]bool{"(east, 5, 1)": true}
	for i := 1; i <= windows; i++ {
		valid[fmt.Sprintf("(east, %d, %d)", 5+50*i, 1+i)] = true
	}

	follower := newRetail(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				rows, epoch, err := follower.QueryEpoch(
					"SELECT region, SUM(amount) AS total, COUNT(*) AS n FROM SALES_BY_STORE GROUP BY region ORDER BY region LIMIT 1")
				if err != nil {
					t.Error(err)
					return
				}
				if epoch < last {
					t.Errorf("follower epoch went backwards: %d after %d", epoch, last)
					return
				}
				last = epoch
				if got := rows[0].String(); !valid[got] {
					t.Errorf("blended east total %s at follower epoch %d", got, epoch)
					return
				}
			}
		}()
	}

	for i := range lg.Windows {
		rep, err := follower.ApplyWindow(&lg.Windows[i])
		if err != nil {
			t.Errorf("replaying window %d: %v", i, err)
			break
		}
		if !rep.Replicated {
			t.Errorf("window %d: replayed report not marked Replicated", i)
		}
	}
	close(stop)
	wg.Wait()

	if got, want := follower.Epoch(), leader.Epoch(); got != want {
		t.Errorf("follower epoch %d, leader %d", got, want)
	}
	if got, want := follower.StateDigest(), leader.StateDigest(); got != want {
		t.Errorf("follower state digest %016x, leader %016x", got, want)
	}
	if err := follower.Verify(); err != nil {
		t.Error(err)
	}
}

// TestWindowAbortLeavesEpochUnchanged: a deadline abort keeps the serving
// epoch, the staged batch, and the journal all in their pre-window states
// — and the same window then commits cleanly on a rerun.
func TestWindowAbortLeavesEpochUnchanged(t *testing.T) {
	w := newRetail(t)
	var buf bytes.Buffer
	j := NewJournal(&buf)
	stageEastSale(t, w, 500)

	before := w.Epoch()
	_, err := w.RunWindowOpts(WindowOptions{Mode: ModeDAG, Journal: j, Timeout: time.Nanosecond})
	if !errors.Is(err, ErrWindowAborted) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want ErrWindowAborted wrapping DeadlineExceeded, got %v", err)
	}
	if got := w.Epoch(); got != before {
		t.Fatalf("abort flipped the epoch: %d -> %d", before, got)
	}
	if j.NeedsRecovery() {
		t.Fatal("aborted window left the journal in-flight")
	}
	if p := w.Pending(); len(p) != 1 {
		t.Fatalf("abort consumed the staged batch: %v", p)
	}
	rows, err := w.Query("SELECT region, SUM(amount) AS total FROM SALES_BY_STORE GROUP BY region ORDER BY region")
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].String() != "(east, 5)" {
		t.Fatalf("abort leaked state: %s", rows[0])
	}

	if _, err := w.RunWindowOpts(WindowOptions{Mode: ModeDAG, Journal: j}); err != nil {
		t.Fatal(err)
	}
	if w.Epoch() != before+1 || j.Committed() != 1 {
		t.Fatalf("rerun: epoch=%d committed=%d", w.Epoch(), j.Committed())
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestExternalCancelAbortsWindow: cancellation through WindowOptions.Context
// (what a SIGINT delivers) behaves exactly like a deadline abort.
func TestExternalCancelAbortsWindow(t *testing.T) {
	w := newRetail(t)
	stageEastSale(t, w, 501)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := w.RunWindowOpts(WindowOptions{Mode: ModeDAG, Context: ctx})
	if !errors.Is(err, ErrWindowAborted) || !errors.Is(err, context.Canceled) {
		t.Fatalf("want ErrWindowAborted wrapping Canceled, got %v", err)
	}
	if w.Epoch() != 1 || len(w.Pending()) != 1 {
		t.Fatalf("cancelled window mutated state: epoch=%d pending=%v", w.Epoch(), w.Pending())
	}
}

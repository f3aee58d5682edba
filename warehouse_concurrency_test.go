package warehouse

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"strings"
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
			_, err = w.RunWindowOpts(WindowOptions{})
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

// gatedSink is a journal sink whose first Write waits for gate to close,
// after closing entered: a window that journals to it holds its lock until
// the test lets it go on.
type gatedSink struct {
	once          sync.Once
	entered, gate chan struct{}
	mu            sync.Mutex
	buf           bytes.Buffer
}

func (s *gatedSink) Write(p []byte) (int, error) {
	s.once.Do(func() {
		close(s.entered)
		<-s.gate
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Write(p)
}

// TestSchemaReadsDoNotWaitForAWindow: NewDelta and ViewSchema read the
// catalog from the serving epoch, so a producer building its next batch
// does not wait for a window that is held up writing its journal.
func TestSchemaReadsDoNotWaitForAWindow(t *testing.T) {
	w := newRetail(t)
	stageEastSale(t, w, 200)
	sink := &gatedSink{entered: make(chan struct{}), gate: make(chan struct{})}
	release := sync.OnceFunc(func() { close(sink.gate) })
	defer release()
	window := make(chan error, 1)
	go func() {
		_, err := w.RunWindowOpts(WindowOptions{Journal: NewJournal(sink)})
		window <- err
	}()
	<-sink.entered
	reads := make(chan error, 1)
	go func() {
		if _, err := w.NewDelta("SALES"); err != nil {
			reads <- err
			return
		}
		_, err := w.ViewSchema("REGION_TOTALS")
		reads <- err
	}()
	select {
	case err := <-reads:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("NewDelta and ViewSchema waited for the window holding the lock")
	}
	release()
	if err := <-window; err != nil {
		t.Fatal(err)
	}
}

// TestPlanningReadsRaceWindows: the planning reads (Plan, PlanningStats,
// EstimateWork, Explain), the snapshot save and the reads of
// the pinned epoch (Views, Graph, Validate, Parallelize, Verify, StateDigest,
// QuerySchema, DumpCSV) run while another goroutine stages batches and
// commits windows. Run under -race, it holds the contract: the planning reads
// and the save serialize with staging and windows, and the rest read a
// pinned epoch. A save that finds the next batch staged refuses it.
func TestPlanningReadsRaceWindows(t *testing.T) {
	w := newRetail(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := int64(0); i < 20; i++ {
			d, err := w.NewDelta("SALES")
			if err != nil {
				t.Error(err)
				return
			}
			d.Add(Tuple{Int(500 + i), Int(2), Float(50)}, 1)
			if err := w.StageDelta("SALES", d); err != nil {
				t.Error(err)
				return
			}
			if _, err := w.RunWindowOpts(WindowOptions{}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	read := func() error {
		plan, err := w.Plan(PrunePlanner)
		if err != nil {
			return err
		}
		if _, err := w.PlanningStats(); err != nil {
			return err
		}
		if _, err := w.EstimateWork(plan.Strategy); err != nil {
			return err
		}
		if _, err := w.Explain(plan.Strategy); err != nil {
			return err
		}
		if _, err := w.Graph(); err != nil {
			return err
		}
		if err := w.Validate(plan.Strategy); err != nil {
			return err
		}
		if len(w.Views()) != 4 {
			return fmt.Errorf("views %v", w.Views())
		}
		if w.Parallelize(plan.Strategy).Exprs() != len(plan.Strategy) {
			return fmt.Errorf("Parallelize lost expressions of %s", plan.Strategy)
		}
		if err := w.Verify(); err != nil {
			return err
		}
		if err := w.SaveSnapshot(io.Discard); err != nil && !strings.Contains(err.Error(), "pending changes") {
			return err
		}
		w.StateDigest()
		if _, err := w.QuerySchema("SELECT region, total FROM REGION_TOTALS"); err != nil {
			return err
		}
		return w.DumpCSV("REGION_TOTALS", io.Discard)
	}
	for {
		if err := read(); err != nil {
			t.Fatal(err)
		}
		select {
		case <-done:
			return
		default:
		}
	}
}

// TestQueriesBesideLoadSnapshotAndRecover: QueryEpoch readers run while
// LoadSnapshot restores, and while Recover completes a crashed window, the
// post-window state on a warehouse at the pre-window one. Run under -race,
// every read is one of the two states the warehouse adopted, the one of the
// epoch it was served from.
func TestQueriesBesideLoadSnapshotAndRecover(t *testing.T) {
	const q = "SELECT region, total, n FROM REGION_TOTALS ORDER BY region"
	read := func(t *testing.T, w *Warehouse) (string, uint64) {
		rows, epoch, err := w.QueryEpoch(q)
		if err != nil {
			t.Error(err)
		}
		return fmt.Sprint(rows), epoch
	}
	post := newRetail(t)
	stageSale(t, post)
	if _, err := post.RunWindowOpts(WindowOptions{}); err != nil {
		t.Fatal(err)
	}
	adopted := map[uint64]string{}
	adopted[1], _ = read(t, newRetail(t))
	adopted[2], _ = read(t, post)
	if adopted[1] == adopted[2] {
		t.Fatalf("the window left REGION_TOTALS at %s", adopted[1])
	}
	var snap bytes.Buffer
	if err := post.SaveSnapshot(&snap); err != nil {
		t.Fatal(err)
	}

	// The crash set-up of TestCrashAndRecoverThroughFacade.
	path := filepath.Join(t.TempDir(), "wh.journal")
	crashed := newRetail(t)
	stageSale(t, crashed)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	inj := NewFaultInjector(1)
	inj.CrashAt("step", 2)
	if _, err := crashed.RunWindowOpts(WindowOptions{Journal: j, Faults: inj}); err == nil {
		t.Fatal("crashed window reported success")
	}
	j.Close()
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()

	for _, c := range []struct {
		name   string
		change func(*Warehouse) error
	}{
		{"LoadSnapshot", func(w *Warehouse) error { return w.LoadSnapshot(bytes.NewReader(snap.Bytes())) }},
		{"Recover", func(w *Warehouse) error {
			_, err := w.Recover(j2)
			return err
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := newRetail(t)
			stop := make(chan struct{})
			var reading, wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				reading.Add(1)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; ; i++ {
						got, epoch := read(t, w)
						if i == 0 {
							reading.Done()
						}
						if got != adopted[epoch] {
							t.Errorf("epoch %d served %s, it adopted %q", epoch, got, adopted[epoch])
							return
						}
						select {
						case <-stop:
							return
						default:
						}
					}
				}()
			}
			reading.Wait()
			err := c.change(w)
			close(stop)
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if got, epoch := read(t, w); epoch != 2 || got != adopted[2] {
				t.Errorf("after %s: epoch %d serves %s, want epoch 2 serving %s", c.name, epoch, got, adopted[2])
			}
		})
	}
}

// TestRestoreHoldsTheFacadeMutex: Restore replays every committed window of
// a journal under the facade mutex, so batches staged while it runs wait for
// the last window instead of landing between two of them, where the next
// replay would run them in a window whose journal does not hold them.
func TestRestoreHoldsTheFacadeMutex(t *testing.T) {
	const windows = 32
	path := filepath.Join(t.TempDir(), "wh.journal")
	leader := newRetail(t)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range windows {
		stageEastSale(t, leader, int64(700+i))
		if _, err := leader.RunWindowOpts(WindowOptions{Journal: j}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()

	w := newRetail(t)
	initial := w.Epoch()
	restored := make(chan struct{})
	staged := make(chan error, 1)
	go func() {
		// Stage batch after batch from Restore's first commit on, until it
		// has returned: at least one.
		for w.Epoch() == initial {
			runtime.Gosched()
		}
		for id := int64(800); ; id++ {
			d, err := w.NewDelta("SALES")
			if err == nil {
				d.Add(Tuple{Int(id), Int(1), Float(1)}, 1)
				err = w.StageDelta("SALES", d)
			}
			if err != nil {
				staged <- err
				return
			}
			select {
			case <-restored:
				staged <- nil
				return
			default:
			}
		}
	}()
	err = w.Restore(j2)
	close(restored)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-staged; err != nil {
		t.Fatal(err)
	}
	if got, want := w.StateDigest(), leader.StateDigest(); got != want {
		t.Errorf("restored state digests to %016x, the journal's last window left %016x", got, want)
	}
	if got := w.Tally().Committed; got != windows {
		t.Errorf("Restore committed %d windows, the journal holds %d", got, windows)
	}
	if got := w.Pending(); len(got) != 1 || got[0] != "SALES" {
		t.Errorf("the batches staged during Restore left pending %v, want [SALES]", got)
	}
}

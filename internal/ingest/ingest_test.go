package ingest

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	warehouse "repro"
	"repro/internal/faults"
	"repro/internal/journal"
	"repro/internal/journal/journaltest"
)

const (
	fixSeed   = int64(42)
	fixStores = 16
	fixSales  = 400
)

func journalPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "window.journal")
}

// readJournal reads the journal file at path as a restart would.
func readJournal(t testing.TB, path string) journal.Log {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lg, err := journal.ReadLog(f)
	if err != nil {
		t.Fatal(err)
	}
	return lg
}

// installedOnce fails t unless the journal at path holds accepts accepts, no
// window in flight, no torn tail and nothing pending: every accept installed
// by a committed window.
func installedOnce(t testing.TB, path string, accepts int) {
	t.Helper()
	lg := readJournal(t, path)
	if lg.LastAccept() != uint64(accepts) || lg.InFlight() != nil || lg.Truncated || len(lg.Pending()) != 0 {
		t.Fatalf("the journal holds %d accepts of %d, in flight=%v, torn=%v, %d pending", lg.LastAccept(), accepts, lg.InFlight() != nil, lg.Truncated, len(lg.Pending()))
	}
}

// startRun launches Run and returns a func that waits for its result.
func startRun(ing *Ingester) (wait func() error) {
	done := make(chan error, 1)
	go func() { done <- ing.Run(context.Background()) }()
	return func() error { return <-done }
}

// TestIngestSteadyState drives a journaled ingester through a steady stream,
// closes it, and checks every accepted change was installed exactly once:
// the warehouse digest matches the sequential oracle over the same stream,
// and the journal holds every accept, installed, with nothing left to
// requeue.
func TestIngestSteadyState(t *testing.T) {
	wjPath := journalPath(t)
	w := buildFixture(t, fixSeed, fixStores, fixSales)
	wj, err := warehouse.OpenJournal(wjPath)
	if err != nil {
		t.Fatal(err)
	}
	defer wj.Close()
	ing, err := New(Config{
		Warehouse: w,
		Journal:   wj,
		SLO:       100 * time.Millisecond,
		Tick:      time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	wait := startRun(ing)

	sets := genSets(fixSeed, fixStores, fixSales, 30, 12)
	for _, s := range sets {
		if err := ing.Submit("SALES", s.delta(t, w)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ing.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := wait(); err != nil {
		t.Fatalf("Run: %v", err)
	}

	want := oracleDigest(t, fixSeed, fixStores, fixSales, sets)
	if got := w.StateDigest(); got != want {
		t.Fatalf("digest mismatch after steady ingestion: got %x want %x", got, want)
	}
	st := ing.Stats()
	if st.Windows == 0 || st.Batches == 0 {
		t.Fatalf("no windows ran: %+v", st)
	}
	if st.Shed != 0 {
		t.Fatalf("unexpected shedding on an unloaded queue: %+v", st)
	}
	if st.StalenessP99MS <= 0 {
		t.Fatalf("staleness percentiles not tracked: %+v", st)
	}
	installedOnce(t, wjPath, len(sets))
	if wj.NeedsRecovery() || len(wj.Pending()) != 0 {
		t.Fatalf("window journal left in flight (%v) or with %d accepts pending after a clean drain", wj.NeedsRecovery(), len(wj.Pending()))
	}
}

// TestIngestBackpressureSheds fills the bounded queue with no window loop
// running: Submit must shed with ErrIngestOverloaded instead of growing the
// queue, and a change set larger than the whole queue is refused outright.
func TestIngestBackpressureSheds(t *testing.T) {
	w := buildFixture(t, fixSeed, fixStores, 64)
	ing, err := New(Config{Warehouse: w, QueueLimit: 64})
	if err != nil {
		t.Fatal(err)
	}
	sets := genSets(fixSeed, fixStores, 64, 6, 16)
	accepted := 0
	shedErrs := 0
	for _, s := range sets {
		err := ing.Submit("SALES", s.delta(t, w))
		switch {
		case err == nil:
			accepted++
		case errors.Is(err, ErrIngestOverloaded):
			shedErrs++
		default:
			t.Fatalf("unexpected Submit error: %v", err)
		}
	}
	if accepted != 4 || shedErrs != 2 {
		t.Fatalf("accepted %d shed %d, want 4 accepted and 2 shed at limit 64", accepted, shedErrs)
	}
	st := ing.Stats()
	if st.QueueDepth > st.QueueLimit {
		t.Fatalf("queue exceeded its bound: %+v", st)
	}
	if st.Shed != 32 {
		t.Fatalf("shed counter = %d, want 32 row-changes", st.Shed)
	}
	// A single set bigger than the queue can never be accepted.
	big := genSets(fixSeed+1, fixStores, 1000, 1, 80)[0]
	if err := ing.Submit("SALES", big.delta(t, w)); !errors.Is(err, ErrIngestOverloaded) {
		t.Fatalf("oversized set: got %v, want ErrIngestOverloaded", err)
	}
}

// TestIngestBackpressureBlocksThenDrains checks the middle rung of the
// pressure ladder: with the window loop running and a generous BlockTimeout,
// a producer hammering a tiny queue blocks rather than sheds, and every
// change lands.
func TestIngestBackpressureBlocksThenDrains(t *testing.T) {
	w := buildFixture(t, fixSeed, fixStores, fixSales)
	ing, err := New(Config{
		Warehouse:    w,
		QueueLimit:   32,
		BlockTimeout: 5 * time.Second,
		Tick:         time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	wait := startRun(ing)
	sets := genSets(fixSeed, fixStores, fixSales, 20, 16)
	for _, s := range sets {
		if err := ing.Submit("SALES", s.delta(t, w)); err != nil {
			t.Fatalf("Submit under backpressure: %v", err)
		}
	}
	if err := ing.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	if st := ing.Stats(); st.Shed != 0 {
		t.Fatalf("blocked producer was shed: %+v", st)
	}
	want := oracleDigest(t, fixSeed, fixStores, fixSales, sets)
	if got := w.StateDigest(); got != want {
		t.Fatalf("digest mismatch: got %x want %x", got, want)
	}
}

// TestIngestCloseFlushes submits without a running window loop and relies on
// Close alone to drain the queue through final windows.
func TestIngestCloseFlushes(t *testing.T) {
	wjPath := journalPath(t)
	w := buildFixture(t, fixSeed, fixStores, fixSales)
	wj, err := warehouse.OpenJournal(wjPath)
	if err != nil {
		t.Fatal(err)
	}
	defer wj.Close()
	ing, err := New(Config{Warehouse: w, Journal: wj})
	if err != nil {
		t.Fatal(err)
	}
	sets := genSets(fixSeed, fixStores, fixSales, 5, 20)
	for _, s := range sets {
		if err := ing.Submit("SALES", s.delta(t, w)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ing.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := ing.Submit("SALES", sets[0].delta(t, w)); !errors.Is(err, ErrIngestClosed) {
		t.Fatalf("Submit after Close: got %v, want ErrIngestClosed", err)
	}
	want := oracleDigest(t, fixSeed, fixStores, fixSales, sets)
	if got := w.StateDigest(); got != want {
		t.Fatalf("digest mismatch after Close flush: got %x want %x", got, want)
	}
	installedOnce(t, wjPath, len(sets))
}

// TestSubmitRefusesAnotherSchema: a change set whose schema is not its
// view's, for no view, or for a derived view, is refused at Submit, and the
// ingester goes on to install what it accepted.
func TestSubmitRefusesAnotherSchema(t *testing.T) {
	w := buildFixture(t, fixSeed, fixStores, fixSales)
	ing, err := New(Config{Warehouse: w})
	if err != nil {
		t.Fatal(err)
	}
	sets := genSets(fixSeed, fixStores, fixSales, 3, 20)
	stores, err := w.NewDelta("STORES")
	if err != nil {
		t.Fatal(err)
	}
	stores.Add(warehouse.Tuple{warehouse.Int(9999), warehouse.String("north")}, 1)
	derived, err := w.NewDelta("SALES_BY_STORE")
	if err != nil {
		t.Fatal(err)
	}
	derived.Add(warehouse.Tuple{warehouse.Int(9999), warehouse.Int(0), warehouse.Float(1), warehouse.String("north")}, 1)
	for view, d := range map[string]*warehouse.Delta{"SALES": stores, "NOPE": sets[0].delta(t, w), "SALES_BY_STORE": derived} {
		if err := ing.Submit(view, d); err == nil {
			t.Fatalf("Submit to %s of a change set over %v was accepted", view, d.Schema())
		}
	}
	for _, s := range sets {
		if err := ing.Submit("SALES", s.delta(t, w)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ing.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, want := w.StateDigest(), oracleDigest(t, fixSeed, fixStores, fixSales, sets); got != want {
		t.Fatalf("digest %x after the refusals, want %x", got, want)
	}
}

// TestIngestResumeAfterCrash kills the ingester with a crash-class fault
// before any batch is installed, then simulates a process restart — rebuild
// the fixture, restore from the journal — and checks the new incarnation
// requeues and installs every accepted change exactly once. The torn case
// dies twice, each time leaving half a frame at the end of the journal as a
// power loss does: what the second incarnation accepted lies behind the first
// one's torn frame unless the reopen cut it off.
func TestIngestResumeAfterCrash(t *testing.T) {
	for _, tc := range []struct {
		name    string
		accepts []int // change sets accepted by each incarnation that dies
		torn    bool
	}{
		{"crash before any install", []int{6}, false},
		{"torn tail, more accepts, second crash", []int{3, 3}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wjPath := journalPath(t)
			restart := func(inj *faults.Injector) (*warehouse.Warehouse, *warehouse.Journal, *Ingester) {
				t.Helper()
				w := buildFixture(t, fixSeed, fixStores, fixSales)
				wj, err := warehouse.OpenJournal(wjPath)
				if err != nil {
					t.Fatal(err)
				}
				if err := w.Restore(wj); err != nil {
					t.Fatalf("Restore: %v", err)
				}
				ing, err := New(Config{Warehouse: w, Journal: wj, Faults: inj, Tick: time.Millisecond})
				if err != nil {
					t.Fatal(err)
				}
				return w, wj, ing
			}
			sets := genSets(fixSeed, fixStores, fixSales, 6, 15)
			accepted := 0
			for _, n := range tc.accepts {
				inj := faults.New(7)
				inj.CrashAt(pointStage, 1)
				w, wj, ing := restart(inj)
				if got := ing.Stats().Requeued; got != accepted {
					t.Fatalf("resume requeued %d entries, want all %d accepted", got, accepted)
				}
				for _, s := range sets[accepted : accepted+n] {
					if err := ing.Submit("SALES", s.delta(t, w)); err != nil {
						t.Fatal(err)
					}
				}
				accepted += n
				if err := ing.Run(context.Background()); err == nil || !faults.IsCrash(err) {
					t.Fatalf("Run survived an injected crash: %v", err)
				}
				ing.Close(context.Background()) // stop the ingester, like process death would
				wj.Close()
				if tc.torn {
					if err := journaltest.TearTail(wjPath); err != nil {
						t.Fatal(err)
					}
				}
			}

			w, wj, ing := restart(nil)
			defer wj.Close()
			if got := ing.Stats().Requeued; got != accepted {
				t.Fatalf("resume requeued %d entries, want all %d accepted", got, accepted)
			}
			if err := ing.Close(context.Background()); err != nil {
				t.Fatalf("drain after resume: %v", err)
			}
			want := oracleDigest(t, fixSeed, fixStores, fixSales, sets[:accepted])
			if got := w.StateDigest(); got != want {
				t.Fatalf("digest mismatch after crash+resume: got %x want %x", got, want)
			}
			installedOnce(t, wjPath, accepted)
		})
	}
}

// TestIngestTransientFaultsRetried checks that a transient failure neither
// loses a change nor installs one twice. A failed accept is reported to the
// producer, who offers it again; a failed cut leaves the queue as it was. A
// failed staging, and a window failure that outlives RunWindowOpts's ladder,
// leave the batch pending, staged as far as it got, and the next tick
// installs it exactly once.
func TestIngestTransientFaultsRetried(t *testing.T) {
	w := buildFixture(t, fixSeed, fixStores, fixSales)
	inj := faults.New(3)
	inj.FailAt(pointAccept, 1)
	inj.FailAt(pointCut, 1)
	inj.FailAt(pointStage, 1)
	// Every step fails, and so does the first recompute: the first window
	// fails its whole ladder, and the second commits by recomputing.
	inj.FailTimes("step", 1<<30)
	inj.FailAt("recompute", 1)
	ing, err := New(Config{Warehouse: w, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	sets := genSets(fixSeed, fixStores, fixSales, 4, 10)
	for _, s := range sets {
		err := ing.Submit("SALES", s.delta(t, w))
		if err != nil {
			if !faults.IsTransient(err) {
				t.Fatalf("Submit: %v", err)
			}
			if err := ing.Submit("SALES", s.delta(t, w)); err != nil {
				t.Fatalf("Submit retry: %v", err)
			}
		}
	}
	before := w.StateDigest()
	// tick is one pass of the window loop, after which the batch is pending
	// (and staged) or not, and queued entries remain.
	tick := func(what string, pending, staged bool, queued int) {
		t.Helper()
		if err := ing.drain(context.Background(), false); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		ing.mu.Lock()
		b, n := ing.pending, len(ing.queue)
		ing.mu.Unlock()
		if (b != nil) != pending || b != nil && b.staged != staged || n != queued {
			t.Fatalf("%s: pending %v (staged %v) with %d queued; want pending %v (staged %v) with %d", what, b != nil, b != nil && b.staged, n, pending, staged, queued)
		}
		if st := ing.Stats(); pending && (st.Windows != 0 || w.StateDigest() != before) {
			t.Fatalf("%s: a window installed the pending batch: %+v", what, st)
		}
	}
	tick("failed cut", false, false, len(sets))
	tick("failed staging", true, false, 0)
	tick("failed ladder", true, true, 0)
	tick("retry", false, false, 0)
	if st := ing.Stats(); st.Batches != 1 || st.Windows != 1 || st.Degraded != 1 {
		t.Fatalf("want one batch installed by one recomputing window: %+v", st)
	}
	if err := ing.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := oracleDigest(t, fixSeed, fixStores, fixSales, sets)
	if got := w.StateDigest(); got != want {
		t.Fatalf("digest mismatch after transient faults: got %x want %x", got, want)
	}
}

// TestIngestTightSLOLandsEveryChange runs with an unachievably tight SLO: the
// first windows blow their deadline, the deadline doubles after every abort
// until a window commits, and every change lands.
func TestIngestTightSLOLandsEveryChange(t *testing.T) {
	w := buildFixture(t, fixSeed, fixStores, fixSales)
	// A 500ns window budget has always expired by the time the DAG scheduler
	// reaches its first node check, so the first attempts abort
	// deterministically; the doubled deadline eventually lets one commit.
	ing, err := New(Config{
		Warehouse: w,
		SLO:       time.Microsecond,
		Mode:      warehouse.ModeDAG, // deadlines cancel between DAG node dispatches
		Workers:   2,
		Tick:      time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	wait := startRun(ing)
	sets := genSets(fixSeed, fixStores, fixSales, 4, 64)
	for _, s := range sets {
		if err := ing.Submit("SALES", s.delta(t, w)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ing.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	if st := ing.Stats(); st.DeadlineAborts == 0 {
		t.Fatalf("a 500ns window deadline never aborted: %+v", st)
	}
	want := oracleDigest(t, fixSeed, fixStores, fixSales, sets)
	if got := w.StateDigest(); got != want {
		t.Fatalf("digest mismatch under deadline pressure: got %x want %x", got, want)
	}
}

// TestPercentileIsNearestRank: the p-quantile of n sorted samples is the
// ceil(p·n)-th smallest, so a p99 under 100 samples is the largest.
func TestPercentileIsNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n        int
		p50, p99 int64
	}{{1, 1, 1}, {10, 5, 10}, {stalenessRingSize, 1024, 2028}} {
		sorted := make([]int64, tc.n)
		for i := range sorted {
			sorted[i] = int64(i + 1)
		}
		if p50, p99 := percentile(sorted, 0.50), percentile(sorted, 0.99); p50 != tc.p50 || p99 != tc.p99 {
			t.Errorf("n=%d: p50 %d, p99 %d; want %d and %d", tc.n, p50, p99, tc.p50, tc.p99)
		}
	}
}

// TestJournalPathAbsentOrEmptyIsIgnored: a JournalPath naming no file, or an
// empty one, leaves nothing to refuse — the first boot of a deployment that
// still names one — and New creates no file there.
func TestJournalPathAbsentOrEmptyIsIgnored(t *testing.T) {
	w := buildFixture(t, fixSeed, fixStores, fixSales)
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.journal")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	absent := filepath.Join(dir, "absent.journal")
	for _, path := range []string{absent, empty} {
		if _, err := New(Config{Warehouse: w, JournalPath: path}); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	if _, err := os.Stat(absent); !os.IsNotExist(err) {
		t.Fatalf("New made %s: %v", absent, err)
	}
}

// TestNewRefusesANegativeSLO: a negative SLO is no staleness target; New
// refuses it rather than run windows without a deadline.
func TestNewRefusesANegativeSLO(t *testing.T) {
	w := buildFixture(t, fixSeed, fixStores, fixSales)
	if _, err := New(Config{Warehouse: w, SLO: -time.Millisecond}); err == nil {
		t.Fatal("New accepted a negative SLO")
	}
}

// TestNewRefusesUnknownPlannerOrMode: a planner or mode no window runs under
// is refused at New with ErrBadWindowOptions, not at every window the
// ingester would cut.
func TestNewRefusesUnknownPlannerOrMode(t *testing.T) {
	w := buildFixture(t, fixSeed, fixStores, fixSales)
	for _, cfg := range []Config{{Warehouse: w, Planner: "bogus"}, {Warehouse: w, Mode: "bogus"}} {
		if in, err := New(cfg); !errors.Is(err, warehouse.ErrBadWindowOptions) {
			if in != nil {
				in.Close(context.Background())
			}
			t.Errorf("planner %q mode %q: %v, want ErrBadWindowOptions", cfg.Planner, cfg.Mode, err)
		}
	}
}

// TestIngestPredictionIsThePlansEstimate: the work an ingester-triggered
// window reports as predicted is the estimate of the plan that window ran,
// under every planner the warehouse has.
func TestIngestPredictionIsThePlansEstimate(t *testing.T) {
	for _, planner := range append([]warehouse.PlannerName{""}, warehouse.Planners...) {
		w := buildFixture(t, fixSeed, fixStores, fixSales)
		var reps []warehouse.WindowReport
		ing, err := New(Config{
			Warehouse: w,
			Planner:   planner,
			Tick:      time.Millisecond,
			OnWindow:  func(rep warehouse.WindowReport) { reps = append(reps, rep) },
		})
		if err != nil {
			t.Fatal(err)
		}
		wait := startRun(ing)
		for _, s := range genSets(fixSeed, fixStores, fixSales, 10, 12) {
			if err := ing.Submit("SALES", s.delta(t, w)); err != nil {
				t.Fatal(err)
			}
		}
		if err := ing.Close(context.Background()); err != nil {
			t.Fatalf("%q: Close: %v", planner, err)
		}
		if err := wait(); err != nil {
			t.Fatalf("%q: Run: %v", planner, err)
		}
		if len(reps) == 0 {
			t.Fatalf("%q: no windows ran", planner)
		}
		for _, rep := range reps {
			want, _ := warehouse.ParsePlanner(string(planner))
			if rep.Plan.Planner != want {
				t.Errorf("%q: window %d was planned by %q", planner, rep.Seq, rep.Plan.Planner)
			}
			if rep.Ingest.PredictedWork <= 0 || rep.Ingest.PredictedWork != int64(rep.Plan.EstimatedWork) {
				t.Errorf("%q: window %d predicted %d, its plan estimated %v",
					planner, rep.Seq, rep.Ingest.PredictedWork, rep.Plan.EstimatedWork)
			}
		}
	}
}

// TestOperatorAcceptIsNeverRequeued: the accept an operator's window writes
// for itself belongs to that window — void when the window aborts (its retry
// writes a new one), installed when it commits or is recovered — so an
// ingester opened on the journal after a restore requeues none of them, and
// the state is the recomputation of what the operator staged.
func TestOperatorAcceptIsNeverRequeued(t *testing.T) {
	wjPath := journalPath(t)
	w := buildFixture(t, fixSeed, fixStores, fixSales)
	wj, err := warehouse.OpenJournal(wjPath)
	if err != nil {
		t.Fatal(err)
	}
	sets := genSets(fixSeed, fixStores, fixSales, 3, 10)
	stage := func(i int) {
		t.Helper()
		if err := w.StageDelta("SALES", sets[i].delta(t, w)); err != nil {
			t.Fatal(err)
		}
	}
	// A window that fails every rung of its ladder — four aborted attempts,
	// each with an accept of its own — its batch left staged; a restage and a
	// commit.
	stage(0)
	fail := faults.New(1)
	fail.FailTimes("step", 1<<30)
	fail.FailAt("recompute", 1)
	if _, err := w.RunWindowOpts(warehouse.WindowOptions{Journal: wj, Faults: fail}); err == nil {
		t.Fatal("the window armed to fail committed")
	}
	stage(1)
	if _, err := w.RunWindowOpts(warehouse.WindowOptions{Journal: wj}); err != nil {
		t.Fatal(err)
	}
	// A window that crashes, for the restart to recover.
	stage(2)
	crash := faults.New(1)
	crash.CrashAt("step", 2)
	if _, err := w.RunWindowOpts(warehouse.WindowOptions{Journal: wj, Faults: crash}); !faults.IsCrash(err) {
		t.Fatalf("the window armed to crash returned %v", err)
	}
	wj.Close()
	if lg := readJournal(t, wjPath); lg.LastAccept() != 6 || len(lg.Pending()) != 0 || lg.InFlight() == nil {
		t.Fatalf("the journal holds %d accepts, %d pending, in flight=%v; want the windows' 6, none pending, one in flight", lg.LastAccept(), len(lg.Pending()), lg.InFlight() != nil)
	}

	restarted := buildFixture(t, fixSeed, fixStores, fixSales)
	wj, err = warehouse.OpenJournal(wjPath)
	if err != nil {
		t.Fatal(err)
	}
	defer wj.Close()
	if err := restarted.Restore(wj); err != nil {
		t.Fatal(err)
	}
	ing, err := New(Config{Warehouse: restarted, Journal: wj})
	if err != nil {
		t.Fatal(err)
	}
	if n := ing.Stats().Requeued; n != 0 {
		t.Fatalf("an ingester requeued %d of the operator's accepts", n)
	}
	if err := ing.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, want := restarted.StateDigest(), oracleDigest(t, fixSeed, fixStores, fixSales, sets); got != want {
		t.Fatalf("after the restart the state digests %016x, the recomputation of the staged batches %016x", got, want)
	}
}

// TestWindowsRetainNoReports: thirty windows after an ingester's third, the
// third's report is garbage: the warehouse keeps a tally of its windows and
// the last report, and the ingester keeps neither.
func TestWindowsRetainNoReports(t *testing.T) {
	w := buildFixture(t, fixSeed, fixStores, fixSales)
	third := make(chan (<-chan struct{}), 1)
	ing, err := New(Config{
		Warehouse: w,
		Journal:   warehouse.NewJournal(new(bytes.Buffer)),
		Tick:      time.Millisecond,
		OnWindow: func(rep warehouse.WindowReport) {
			if rep.Seq == 3 {
				done := make(chan struct{})
				runtime.SetFinalizer(&rep.Report.Steps[0], func(*warehouse.StepReport) { close(done) })
				third <- done
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	wait := startRun(ing)
	for i, s := range genSets(fixSeed, fixStores, fixSales, 33, 4) {
		if err := ing.Submit("SALES", s.delta(t, w)); err != nil {
			t.Fatal(err)
		}
		for st := ing.Stats(); st.Windows <= int64(i); st = ing.Stats() {
			if st.Err != "" {
				t.Fatal(st.Err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if err := ing.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	if n := w.Tally().Committed; n != 33 {
		t.Fatalf("%d windows committed, want 33", n)
	}
	freed := <-third
	deadline := time.After(5 * time.Second)
	for collected := false; !collected; {
		runtime.GC()
		select {
		case <-freed:
			collected = true
		case <-deadline:
			t.Fatal("the report of the ingester's third window is still reachable after its 33rd")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

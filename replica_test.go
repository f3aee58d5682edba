package warehouse

import (
	"bytes"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
)

// shipRetailWindows journals n windows on a fresh retail warehouse and
// returns the leader plus the shipped log, parsed and as bytes.
func shipRetailWindows(t *testing.T, n int) (*Warehouse, journal.Log, []byte) {
	t.Helper()
	leader := newRetail(t)
	var buf bytes.Buffer
	j := NewJournal(&buf)
	for i := 0; i < n; i++ {
		stageEastSale(t, leader, int64(700+i))
		if _, err := leader.RunWindowOpts(WindowOptions{Mode: ModeDAG, Journal: j}); err != nil {
			t.Fatal(err)
		}
	}
	lg, err := journal.ReadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return leader, lg, buf.Bytes()
}

// TestApplyWindowOrdering: shipped windows must apply in order — skipping
// one fails the pre-state digest check and leaves the follower untouched;
// re-applying an already-applied window fails the same way.
func TestApplyWindowOrdering(t *testing.T) {
	leader, lg, _ := shipRetailWindows(t, 3)
	follower := newRetail(t)

	// Out of order: window 2 against a follower still at epoch 1.
	if _, err := follower.ApplyWindow(&lg.Windows[1]); err == nil {
		t.Fatal("skipped-ahead window applied")
	}
	if follower.Epoch() != 1 {
		t.Fatalf("failed apply flipped epoch to %d", follower.Epoch())
	}

	for i := range lg.Windows {
		if _, err := follower.ApplyWindow(&lg.Windows[i]); err != nil {
			t.Fatalf("window %d: %v", i, err)
		}
	}
	// Duplicate: the last window again.
	if _, err := follower.ApplyWindow(&lg.Windows[2]); err == nil {
		t.Fatal("duplicate window applied")
	}
	if got, want := follower.Epoch(), leader.Epoch(); got != want {
		t.Fatalf("epochs: follower %d, leader %d", got, want)
	}
	if got, want := follower.StateDigest(), leader.StateDigest(); got != want {
		t.Fatalf("digests: follower %016x, leader %016x", got, want)
	}
}

// TestApplyWindowPinnedReaders: a pin taken before a replicated flip keeps
// serving the old epoch; the flip is atomic for new readers.
func TestApplyWindowPinnedReaders(t *testing.T) {
	_, lg, _ := shipRetailWindows(t, 1)
	follower := newRetail(t)
	p := follower.PinEpoch()
	defer p.Close()

	if _, err := follower.ApplyWindow(&lg.Windows[0]); err != nil {
		t.Fatal(err)
	}
	old, err := p.Rows("SALES_BY_STORE")
	if err != nil {
		t.Fatal(err)
	}
	if len(old) != 3 {
		t.Fatalf("pinned reader sees %d rows post-replay, want pre-window 3", len(old))
	}
	cur, err := follower.Rows("SALES_BY_STORE")
	if err != nil {
		t.Fatal(err)
	}
	if len(cur) != 4 {
		t.Fatalf("current epoch has %d rows, want 4", len(cur))
	}
	if follower.LiveEpochs() != 2 {
		t.Fatalf("live epochs = %d", follower.LiveEpochs())
	}
}

// TestResumeJournal: a promoted follower's journal continues the committed
// count and the window and accept numbering of the log it replicated.
func TestResumeJournal(t *testing.T) {
	leader, lg, image := shipRetailWindows(t, 2)
	follower := newRetail(t)
	for i := range lg.Windows {
		if _, err := follower.ApplyWindow(&lg.Windows[i]); err != nil {
			t.Fatal(err)
		}
	}

	out := bytes.NewBuffer(slices.Clip(image))
	j, err := ResumeJournal(out, image)
	if err != nil {
		t.Fatal(err)
	}
	if j.Committed() != 2 || j.NeedsRecovery() || len(j.Pending()) != 0 {
		t.Fatalf("resumed journal: committed=%d needsRecovery=%v", j.Committed(), j.NeedsRecovery())
	}
	stageEastSale(t, follower, 800)
	if _, err := follower.RunWindowOpts(WindowOptions{Journal: j}); err != nil {
		t.Fatal(err)
	}
	if j.Committed() != 3 {
		t.Fatalf("committed after resumed window = %d", j.Committed())
	}
	newLog, err := journal.ReadLog(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(newLog.Windows) != 3 || newLog.Windows[2].Begin.Seq != 3 || newLog.Windows[2].Begin.Accepts.Lo != 3 {
		t.Fatalf("resumed journal numbered the window %d and its accept %d, want 3 and 3", newLog.Windows[2].Begin.Seq, newLog.Windows[2].Begin.Accepts.Lo)
	}
	if follower.Epoch() != leader.Epoch()+1 {
		t.Fatalf("promoted follower epoch %d", follower.Epoch())
	}
	if tally := follower.Tally(); tally.Committed != 3 || tally.Replicated != 2 {
		t.Fatalf("tally: %d committed, %d replicated; want 3 and 2", tally.Committed, tally.Replicated)
	}
}

// collected arranges for the returned channel to close once the garbage
// collector has reclaimed the core of w's current serving epoch.
func collected(w *Warehouse) <-chan struct{} {
	done := make(chan struct{})
	p := w.PinEpoch()
	runtime.SetFinalizer(p.pin.Warehouse(), func(*core.Warehouse) { close(done) })
	p.Close()
	return done
}

// stepsCollected arranges for the returned channel to close once the garbage
// collector has reclaimed the steps of rep — the bulk of a window's report.
func stepsCollected(rep WindowReport) <-chan struct{} {
	done := make(chan struct{})
	runtime.SetFinalizer(&rep.Report.Steps[0], func(*StepReport) { close(done) })
	return done
}

// awaitCollected fails t unless every channel of freed closes within a few
// seconds of garbage collection.
func awaitCollected(t *testing.T, freed map[string]<-chan struct{}) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for name, done := range freed {
		for closed := false; !closed; {
			runtime.GC()
			select {
			case <-done:
				closed = true
			case <-deadline:
				t.Fatalf("%s is still reachable", name)
			case <-time.After(10 * time.Millisecond):
			}
		}
	}
}

// TestWindowsRetainNoReports: the warehouse keeps a tally of its windows and
// the last one's report, not every report. Thirty windows after window 3, on
// a leader and on the follower that replays its journal, window 3's report
// and the epoch it retired are garbage — its private table copies with it —
// and one epoch is live.
func TestWindowsRetainNoReports(t *testing.T) {
	leader := newRetail(t)
	var buf bytes.Buffer
	j := NewJournal(&buf)
	freed := map[string]<-chan struct{}{}
	for i := 0; i < 33; i++ {
		stageEastSale(t, leader, int64(700+i))
		rep, err := leader.RunWindowOpts(WindowOptions{Journal: j})
		if err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			freed["the leader's epoch after window 3"] = collected(leader)
			freed["the leader's report of window 3"] = stepsCollected(rep)
		}
	}
	lg, err := journal.ReadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	follower := newRetail(t)
	for i := range lg.Windows {
		rep, err := follower.ApplyWindow(&lg.Windows[i])
		if err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			freed["the follower's epoch after window 3"] = collected(follower)
			freed["the follower's report of window 3"] = stepsCollected(rep)
		}
	}
	if leader.Tally().Committed != 33 || follower.Tally().Replicated != 33 {
		t.Fatalf("tally: leader %+v, follower %+v", leader.Tally(), follower.Tally())
	}
	awaitCollected(t, freed)
	if leader.LiveEpochs() != 1 || follower.LiveEpochs() != 1 {
		t.Fatalf("live epochs: leader %d, follower %d, want 1 and 1", leader.LiveEpochs(), follower.LiveEpochs())
	}
}

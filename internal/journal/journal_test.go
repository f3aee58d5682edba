package journal

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/journal/journaltest"
	"repro/internal/strategy"
)

// testBegin is an operator's window: Begin journals its batch as its own
// accept.
func testBegin() BeginRecord {
	return BeginRecord{
		Seq:             3,
		Planner:         "minwork",
		Mode:            "dag",
		Workers:         4,
		SkipEmptyDeltas: true,
		StateDigest:     0xdeadbeefcafe,
		BatchDigest:     0x1234,
		Strategy: strategy.Strategy{
			strategy.Comp{View: "V", Over: []string{"A", "B"}},
			strategy.Comp{View: "W", Over: []string{"A"}},
			strategy.Inst{View: "V"},
			strategy.Inst{View: "W"},
		},
		Own: true,
		Batch: []ViewBatch{
			{View: "A", Rows: []RowChange{{Key: "k1", Count: 2}, {Key: "k2", Count: -1}}},
			{View: "B", Rows: []RowChange{{Key: "k3", Count: 1}}},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	b := testBegin()
	if err := w.Begin(b); err != nil {
		t.Fatal(err)
	}
	steps := []StepRecord{
		{Index: 0, Key: "C:V:A,B", Work: 42, Terms: 3},
		{Index: 2, Key: "I:V", Work: 7, Digest: 0xabcdef},
		{Index: 1, Key: "C:W:A", Work: 0, Terms: 1, Skipped: true},
	}
	for _, s := range steps {
		if err := w.Step(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(CommitRecord{TotalWork: 49, ElapsedNS: 12345}); err != nil {
		t.Fatal(err)
	}

	lg, err := ReadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if lg.Truncated {
		t.Fatal("intact journal reported truncated")
	}
	if len(lg.Windows) != 1 {
		t.Fatalf("%d windows, want 1", len(lg.Windows))
	}
	wl := lg.Windows[0]
	if !wl.Committed() || wl.Abort != nil {
		t.Fatalf("window not committed: %+v", wl)
	}
	got := wl.Begin
	if got.Seq != b.Seq || got.Planner != b.Planner || got.Mode != b.Mode ||
		got.Workers != b.Workers || !got.SkipEmptyDeltas || got.ProbeWork ||
		got.StateDigest != b.StateDigest || got.BatchDigest != b.BatchDigest {
		t.Fatalf("begin mismatch: %+v vs %+v", got, b)
	}
	if got.Strategy.String() != b.Strategy.String() {
		t.Fatalf("strategy %s, want %s", got.Strategy, b.Strategy)
	}
	if !got.Own || got.Accepts != (Range{1, 1}) || len(lg.Pending()) != 0 || lg.LastAccept() != 1 {
		t.Fatalf("own accept: own=%v accepts=%+v, %d pending of %d", got.Own, got.Accepts, len(lg.Pending()), lg.LastAccept())
	}
	if len(got.Batch) != 2 || got.Batch[0].View != "A" || len(got.Batch[0].Rows) != 2 ||
		got.Batch[0].Rows[1].Count != -1 || got.Batch[1].Rows[0].Key != "k3" {
		t.Fatalf("batch mismatch: %+v", got.Batch)
	}
	if len(wl.Steps) != 3 {
		t.Fatalf("%d steps, want 3", len(wl.Steps))
	}
	if wl.Steps[1].Digest != 0xabcdef || !wl.Steps[2].Skipped || wl.Steps[0].Terms != 3 {
		t.Fatalf("steps mismatch: %+v", wl.Steps)
	}
	if wl.Commit.TotalWork != 49 || wl.Commit.ElapsedNS != 12345 {
		t.Fatalf("commit mismatch: %+v", wl.Commit)
	}
	if lg.InFlight() != nil {
		t.Fatal("committed journal reports in-flight window")
	}
	if lg.CommittedCount() != 1 {
		t.Fatalf("CommittedCount = %d", lg.CommittedCount())
	}
}

func TestInFlightDetection(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Begin(testBegin()); err != nil {
		t.Fatal(err)
	}
	if err := w.Step(StepRecord{Index: 0, Key: "C:V:A,B", Work: 10}); err != nil {
		t.Fatal(err)
	}
	lg, err := ReadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	wl := lg.InFlight()
	if wl == nil {
		t.Fatal("crashed journal has no in-flight window")
	}
	if len(wl.Steps) != 1 || wl.Steps[0].Work != 10 {
		t.Fatalf("in-flight steps: %+v", wl.Steps)
	}

	// An aborted window is closed, not in-flight.
	if err := w.Abort(AbortRecord{Reason: "boom"}); err != nil {
		t.Fatal(err)
	}
	lg, err = ReadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if lg.InFlight() != nil {
		t.Fatal("aborted window reported in-flight")
	}
	if lg.Windows[0].Abort.Reason != "boom" {
		t.Fatalf("abort reason %q", lg.Windows[0].Abort.Reason)
	}
}

func TestTornTailTolerated(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Begin(testBegin()); err != nil {
		t.Fatal(err)
	}
	if err := w.Step(StepRecord{Index: 0, Key: "C:V:A,B"}); err != nil {
		t.Fatal(err)
	}
	intact := buf.Len()
	if err := w.Step(StepRecord{Index: 1, Key: "C:W:A"}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every strict prefix that cuts into the last record must parse to the
	// first two records with Truncated set.
	for cut := intact + 1; cut < len(full); cut++ {
		lg, err := ReadLog(bytes.NewReader(full[:cut]))
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !lg.Truncated {
			t.Fatalf("cut %d: torn tail not reported", cut)
		}
		if len(lg.Windows) != 1 || len(lg.Windows[0].Steps) != 1 {
			t.Fatalf("cut %d: parsed %+v", cut, lg.Windows)
		}
	}
}

func TestCorruptByteDropsTail(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Begin(testBegin()); err != nil {
		t.Fatal(err)
	}
	mark := buf.Len()
	if err := w.Step(StepRecord{Index: 0, Key: "C:V:A,B", Work: 5}); err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), buf.Bytes()...)
	raw[mark+3] ^= 0xff // corrupt the step record's body
	lg, err := ReadLog(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !lg.Truncated || len(lg.Windows[0].Steps) != 0 {
		t.Fatalf("corrupt record not dropped: truncated=%v steps=%d", lg.Truncated, len(lg.Windows[0].Steps))
	}
}

func TestStepOutsideWindowIsError(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Step(StepRecord{Index: 0, Key: "C:V:A"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadLog(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("step before begin accepted")
	}
}

func TestWriterStickyError(t *testing.T) {
	w := NewWriter(failWriter{})
	if err := w.Commit(CommitRecord{}); err == nil {
		t.Fatal("write to failing sink succeeded")
	}
	if err := w.Err(); err == nil {
		t.Fatal("sticky error not recorded")
	}
	if err := w.Abort(AbortRecord{}); err == nil {
		t.Fatal("append after failure succeeded")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, bytes.ErrTooLarge }

// TestWriterSetContext: with a cancelled context attached, Begin and Step
// are refused (a dead window must not open or extend journal windows) while
// Abort and Commit still land — they close a window that already executed.
// The refusal is not sticky, and detaching the context restores appends.
func TestWriterSetContext(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Begin(testBegin()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w.SetContext(ctx)
	if err := w.Step(StepRecord{Index: 0, Key: "C:V:A", Work: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("step under cancelled ctx: %v", err)
	}
	if err := w.Begin(testBegin()); !errors.Is(err, context.Canceled) {
		t.Fatalf("begin under cancelled ctx: %v", err)
	}
	if err := w.Abort(AbortRecord{Reason: "cancelled"}); err != nil {
		t.Fatalf("abort must land under cancelled ctx: %v", err)
	}
	if w.Err() != nil {
		t.Fatalf("context refusal became sticky: %v", w.Err())
	}
	w.SetContext(nil)
	if err := w.Begin(testBegin()); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(CommitRecord{TotalWork: 1}); err != nil {
		t.Fatal(err)
	}

	lg, err := ReadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if lg.InFlight() != nil || lg.CommittedCount() != 1 || len(lg.Windows) != 2 {
		t.Fatalf("log shape: windows=%d committed=%d inflight=%v",
			len(lg.Windows), lg.CommittedCount(), lg.InFlight() != nil)
	}
}

// TestWriterSyncsWindowBoundaries: the writer syncs the begin record, the
// commit and the abort — four syncs for two windows — and lets step records
// ride the next of those, each record still handed to the file whole, in one
// Write, as it is appended. The begin record's sync is started by Begin and
// waited for by whatever closes the window, so what it made durable is read
// after Wait.
func TestWriterSyncsWindowBoundaries(t *testing.T) {
	f := &journaltest.Disk{}
	w := NewWriter(f)
	expect := func(what string, syncs, durable int) {
		t.Helper()
		if got := f.Syncs(); got != syncs {
			t.Fatalf("after %s: %d syncs, want %d", what, got, syncs)
		}
		if got := f.Now().Durable; got != durable {
			t.Fatalf("after %s: %d bytes synced, want %d", what, got, durable)
		}
	}
	if err := w.Begin(testBegin()); err != nil {
		t.Fatal(err)
	}
	begun := f.Now().Written
	if err := w.Wait(); err != nil {
		t.Fatal(err)
	}
	expect("begin", 1, begun)
	for i := 0; i < 5; i++ {
		before := f.Now().Written
		if err := w.Step(StepRecord{Index: i, Key: "C:V:A", Work: int64(i)}); err != nil {
			t.Fatal(err)
		}
		added := f.Bytes()[before:]
		if _, _, n, err := DecodeFrame(added); err != nil || n != len(added) {
			t.Fatalf("step %d did not reach the file as one whole frame: n=%d of %d, err=%v", i, n, len(added), err)
		}
	}
	expect("five steps", 1, begun)
	if err := w.Commit(CommitRecord{TotalWork: 10}); err != nil {
		t.Fatal(err)
	}
	expect("commit", 2, f.Now().Written)

	if err := w.Begin(testBegin()); err != nil {
		t.Fatal(err)
	}
	begun = f.Now().Written
	if err := w.Step(StepRecord{Index: 0, Key: "C:V:A"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Wait(); err != nil {
		t.Fatal(err)
	}
	// The step may have been written before the begin record's sync started,
	// and is then flushed with it.
	if d := f.Now().Durable; f.Syncs() != 3 || d < begun {
		t.Fatalf("after second begin and a step: %d syncs, %d bytes synced; want 3 and at least %d", f.Syncs(), d, begun)
	}
	if err := w.Abort(AbortRecord{Reason: "test"}); err != nil {
		t.Fatal(err)
	}
	expect("abort", 4, f.Now().Written)
}

// TestReadLogReportsIntactSize: Size is where the intact records end,
// whether or not a torn frame follows them.
func TestReadLogReportsIntactSize(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Begin(testBegin()); err != nil {
		t.Fatal(err)
	}
	begun := buf.Len()
	if err := w.Step(StepRecord{Index: 0, Key: "C:V:A,B"}); err != nil {
		t.Fatal(err)
	}
	whole := buf.Len()
	for _, cut := range []int{whole, whole - 1, whole - 9} {
		lg, err := ReadLog(bytes.NewReader(buf.Bytes()[:cut]))
		if err != nil {
			t.Fatal(err)
		}
		wantSize := int64(whole)
		if cut < whole {
			wantSize = int64(begun) // only the accept and the begin record are whole
		}
		if lg.Size != wantSize || lg.Truncated != (cut < whole) {
			t.Fatalf("cut at %d of %d: Size=%d Truncated=%v, want Size=%d", cut, whole, lg.Size, lg.Truncated, wantSize)
		}
	}
}

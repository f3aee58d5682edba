package journal

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/parent.journal with this commit's writer")

// writeGolden journals what testdata/parent.journal holds, every field of
// every record set: two accepts a committed window installs, an operator's
// window that aborts and its retry that commits, an accept a window in flight
// names, and one appended among that window's steps.
func writeGolden(t testing.TB, w *Writer) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	accept := func(a AcceptRecord) {
		t.Helper()
		_, _, err := w.Accept(a)
		must(err)
	}
	accept(AcceptRecord{UnixNano: 1699999999000000000, Batch: []ViewBatch{{View: "A", Rows: []RowChange{{Key: "k1", Count: 2}, {Key: "k2", Count: -1}}}}})
	accept(AcceptRecord{UnixNano: 1699999999000000001, Batch: []ViewBatch{{View: "A", Rows: []RowChange{{Key: "k1", Count: -2}}}, {View: "B", Rows: []RowChange{{Key: "k3", Count: 1}}}}})
	first := testBegin()
	first.Own, first.Accepts = false, Range{1, 2}
	must(w.Begin(first))
	must(w.Step(StepRecord{Index: 0, Key: "C:V:A,B", Work: 42, Terms: 3}))
	must(w.Step(StepRecord{Index: 2, Key: "I:V", Work: 7, Digest: 0xabcdef}))
	must(w.Step(StepRecord{Index: 1, Key: "C:W:A", Terms: 1, Skipped: true}))
	must(w.Commit(CommitRecord{TotalWork: 49, ElapsedNS: 12345, UnixNano: 1700000000000000001, AcceptUnixNano: 1699999999000000000}))
	operator := BeginRecord{Seq: 2, Planner: "prune", Mode: "sequential", Workers: 1, ProbeWork: true, StateDigest: 1, BatchDigest: 2, Own: true,
		Batch: []ViewBatch{{View: "A", Rows: []RowChange{{Key: "\x00k\xff", Count: -3}}}}}
	must(w.Begin(operator))
	must(w.Abort(AbortRecord{Reason: "deadline"}))
	accept(AcceptRecord{UnixNano: 1700000000000000002, Batch: []ViewBatch{{View: "B", Rows: []RowChange{{Key: "k4", Count: 5}}}}})
	must(w.Begin(operator))
	must(w.Step(StepRecord{Index: 0, Key: "I:A", Work: 3, Digest: 9}))
	must(w.Commit(CommitRecord{TotalWork: 3, ElapsedNS: 1, UnixNano: 1700000000000000003}))
	inflight := BeginRecord{Seq: 3, Mode: "recompute", Strategy: testBegin().Strategy, Accepts: Range{4, 4}}
	must(w.Begin(inflight))
	accept(AcceptRecord{UnixNano: 1700000000000000004, Batch: []ViewBatch{{View: "A", Rows: []RowChange{{Key: "k5", Count: 1}}}}})
	must(w.Step(StepRecord{Index: 0, Key: "C:V:A,B", Work: 1}))
	must(w.Wait())
}

// goldenLog is how testdata/parent.journal reads: its windows, and the
// accepts no committed window installs and no window was written for.
func goldenLog() ([]WindowLog, Accepts) {
	first := testBegin()
	first.Own, first.Accepts = false, Range{1, 2}
	first.Batch = []ViewBatch{{View: "A", Rows: []RowChange{{Key: "k1", Count: 2}, {Key: "k2", Count: -1}}},
		{View: "A", Rows: []RowChange{{Key: "k1", Count: -2}}}, {View: "B", Rows: []RowChange{{Key: "k3", Count: 1}}}}
	aborted := BeginRecord{Seq: 2, Planner: "prune", Mode: "sequential", Workers: 1, ProbeWork: true, StateDigest: 1, BatchDigest: 2, Own: true,
		Accepts: Range{3, 3}, Batch: []ViewBatch{{View: "A", Rows: []RowChange{{Key: "\x00k\xff", Count: -3}}}}}
	retried := aborted
	retried.Accepts = Range{5, 5}
	fourth := AcceptRecord{Seq: 4, UnixNano: 1700000000000000002, Batch: []ViewBatch{{View: "B", Rows: []RowChange{{Key: "k4", Count: 5}}}}}
	sixth := AcceptRecord{Seq: 6, UnixNano: 1700000000000000004, Batch: []ViewBatch{{View: "A", Rows: []RowChange{{Key: "k5", Count: 1}}}}}
	return []WindowLog{
		{
			Begin: first,
			Steps: []StepRecord{
				{Index: 0, Key: "C:V:A,B", Work: 42, Terms: 3},
				{Index: 2, Key: "I:V", Work: 7, Digest: 0xabcdef},
				{Index: 1, Key: "C:W:A", Terms: 1, Skipped: true},
			},
			Commit: &CommitRecord{TotalWork: 49, ElapsedNS: 12345, UnixNano: 1700000000000000001, AcceptUnixNano: 1699999999000000000},
		},
		{Begin: aborted, Abort: &AbortRecord{Reason: "deadline"}},
		{Begin: retried, Steps: []StepRecord{{Index: 0, Key: "I:A", Work: 3, Digest: 9}}, Commit: &CommitRecord{TotalWork: 3, ElapsedNS: 1, UnixNano: 1700000000000000003}},
		{Begin: BeginRecord{Seq: 3, Mode: "recompute", Strategy: testBegin().Strategy, Accepts: Range{4, 4}, Batch: fourth.Batch},
			Steps: []StepRecord{{Index: 0, Key: "C:V:A,B", Work: 1}}},
	}, Accepts{fourth, sixth}
}

// reencode decodes every frame of buf by its record type, and encodes what it
// decoded again.
func reencode(t testing.TB, buf []byte) []byte {
	t.Helper()
	var out []byte
	n, err := Scan(buf, func(typ byte, p []byte, _ int) error {
		var again []byte
		var err error
		switch typ {
		case TypeAccept:
			var a AcceptRecord
			a, err = decodeAccept(p)
			again = encodeAccept(a)
		case TypeBegin:
			var b BeginRecord
			if b, err = decodeBegin(p); err == nil {
				again, err = encodeBegin(b)
			}
		case TypeStep:
			var s StepRecord
			s, err = decodeStep(p)
			again = encodeStep(s)
		case TypeCommit:
			var c CommitRecord
			c, err = decodeCommit(p)
			again = encodeCommit(c)
		case TypeAbort:
			c := NewCursor("journal: abort", p)
			again = AppendString(nil, c.String("reason"))
			err = c.Done()
		default:
			err = errors.New("not a record of the window journal")
		}
		out = append(out, EncodeFrame(typ, again)...)
		return err
	})
	if err != nil || n != len(buf) {
		t.Fatalf("re-encoding %d bytes stopped at %d: %v", len(buf), n, err)
	}
	return out
}

// TestGoldenJournalBytes: the journal the parent commit's writer wrote
// (testdata/parent.journal, made there by this test under -update-golden)
// reads back as the windows and pending accepts it was written with, this
// commit's writer writes the same bytes for the same calls, holding the same
// accepts pending, and every record re-encodes to its own bytes — so each
// commit reads what the other writes.
func TestGoldenJournalBytes(t *testing.T) {
	const path = "testdata/parent.journal"
	var written bytes.Buffer
	w := NewWriter(&written)
	writeGolden(t, w)
	if *updateGolden {
		if err := os.WriteFile(path, written.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lg, err := ReadLog(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	if lg.Truncated || lg.Size != int64(len(golden)) {
		t.Fatalf("the golden journal reads as torn: Truncated=%v Size=%d of %d", lg.Truncated, lg.Size, len(golden))
	}
	windows, pending := goldenLog()
	if !reflect.DeepEqual(lg.Windows, windows) {
		t.Fatalf("the golden journal decodes to\n%+v\nwant\n%+v", lg.Windows, windows)
	}
	if !reflect.DeepEqual(lg.Pending(), pending) || lg.LastAccept() != 6 || !reflect.DeepEqual(w.Pending(), pending) {
		t.Fatalf("pending accepts %+v of 6 read, %+v written, want %+v", lg.Pending(), w.Pending(), pending)
	}
	if err := w.Begin(BeginRecord{Seq: 4, Accepts: Range{1, 1}}); err == nil {
		t.Fatal("the writer began a window naming an accept a committed window installed")
	}
	if wl := lg.InFlight(); wl == nil || wl.Begin.Mode != "recompute" || lg.CommittedCount() != 2 {
		t.Fatalf("in flight %+v, %d committed", wl, lg.CommittedCount())
	}
	if !bytes.Equal(written.Bytes(), golden) {
		t.Fatalf("this commit's writer writes %d bytes that differ from the golden journal's %d", written.Len(), len(golden))
	}
	if !bytes.Equal(reencode(t, golden), golden) {
		t.Fatal("re-encoding the golden journal's records does not give its bytes back")
	}
}

// TestBatchInBeginIsRefused: a journal whose begin records carry their
// change batches — testdata/batch_in_begin.journal, written before accepted
// changes were records of their own — is refused by the file reader and by an
// open for append with the reason, not read as torn, and is left as it was.
func TestBatchInBeginIsRefused(t *testing.T) {
	old, err := os.ReadFile("testdata/batch_in_begin.journal")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadLog(bytes.NewReader(old)); !errors.Is(err, errBatchBegin) {
		t.Fatalf("ReadLog of a journal with batches in its begin records: %v", err)
	}
	path := filepath.Join(t.TempDir(), "old.journal")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	var lg Log
	if _, err := OpenAppend(path, lg.Feed); !errors.Is(err, errBatchBegin) {
		t.Fatalf("OpenAppend of a journal with batches in its begin records: %v", err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, old) {
		t.Fatal("the refused journal was cut")
	}
}

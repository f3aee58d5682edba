package journal

import (
	"bytes"
	"flag"
	"os"
	"reflect"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/parent.journal with this commit's writer")

// goldenWindows is what testdata/parent.journal holds: a committed window, an
// aborted one and one left in flight, every field of every record set.
func goldenWindows() []WindowLog {
	second := BeginRecord{Seq: 4, Planner: "prune", Mode: "sequential", Workers: 1, ProbeWork: true, StateDigest: 1, BatchDigest: 2,
		Batch: []ViewBatch{{View: "A", Rows: []RowChange{{Key: "\x00k\xff", Count: -3}}}}}
	third := second
	third.Mode, third.ProbeWork = "recompute", false
	return []WindowLog{
		{
			Begin: testBegin(),
			Steps: []StepRecord{
				{Index: 0, Key: "C:V:A,B", Work: 42, Terms: 3},
				{Index: 2, Key: "I:V", Work: 7, Digest: 0xabcdef},
				{Index: 1, Key: "C:W:A", Terms: 1, Skipped: true},
			},
			Commit: &CommitRecord{TotalWork: 49, ElapsedNS: 12345, UnixNano: 1700000000000000001, AcceptUnixNano: 1699999999000000000},
		},
		{Begin: second, Abort: &AbortRecord{Reason: "deadline"}},
		{Begin: third, Steps: []StepRecord{{Index: 0, Key: "I:A", Work: 3, Digest: 9}}},
	}
}

// encodeWindows writes windows through a Writer, as the window path does.
func encodeWindows(t testing.TB, windows []WindowLog) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, wl := range windows {
		must(w.Begin(wl.Begin))
		for _, s := range wl.Steps {
			must(w.Step(s))
		}
		if wl.Commit != nil {
			must(w.Commit(*wl.Commit))
		}
		if wl.Abort != nil {
			must(w.Abort(*wl.Abort))
		}
	}
	must(w.Wait())
	return buf.Bytes()
}

// TestGoldenJournalBytes: the journal the parent commit's writer wrote
// (testdata/parent.journal, made there by this test under -update-golden)
// reads back as the records it was written from, and this commit's writer
// turns those records into the same bytes — so each commit reads what the
// other writes.
func TestGoldenJournalBytes(t *testing.T) {
	const path = "testdata/parent.journal"
	if *updateGolden {
		if err := os.WriteFile(path, encodeWindows(t, goldenWindows()), 0o644); err != nil {
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
	if want := goldenWindows(); !reflect.DeepEqual(lg.Windows, want) {
		t.Fatalf("the golden journal decodes to\n%+v\nwant\n%+v", lg.Windows, want)
	}
	if wl := lg.InFlight(); wl == nil || wl.Begin.Mode != "recompute" || lg.CommittedCount() != 1 {
		t.Fatalf("in flight %+v, %d committed", wl, lg.CommittedCount())
	}
	if got := encodeWindows(t, lg.Windows); !bytes.Equal(got, golden) {
		t.Fatalf("re-encoding the golden journal's windows gives %d bytes that differ from its %d", len(got), len(golden))
	}
}

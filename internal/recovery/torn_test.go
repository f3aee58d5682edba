package recovery

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/exec"
	"repro/internal/journal"
)

// TestRecoverFromTornJournal is the power-loss case of the durability
// contract: only begin, commit and abort records are synced, so a window
// found in flight has its accept and begin records and whatever prefix of its
// step records reached the disk — possibly ending inside a frame. The journal
// is cut at every byte short of its commit record's end. Before the begin
// record is whole there is no window, and the window's own accept, whole or
// torn, is never pending; from there on, recovery lands on the views, and
// journals the installed-delta digests, of the run that was never
// interrupted.
func TestRecoverFromTornJournal(t *testing.T) {
	w, s := newFixture(t)
	var whole bytes.Buffer
	res, err := Run(w, s, Options{Journal: journal.NewWriter(&whole), Seq: 7, Mode: exec.ModeSequential, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	want := bags(t, res.Core)
	wantDigests := instDigestsOf(t, &whole)

	// Frame boundaries of the one window: its own accept, begin, one per
	// step, commit.
	ends := frameEnds(t, whole.Bytes())
	if len(ends) != len(s)+3 {
		t.Fatalf("journal holds %d frames, want accept + begin + %d steps + commit", len(ends), len(s))
	}

	beginEnd := ends[1]
	for cut := 0; cut < whole.Len(); cut++ {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			torn := bytes.NewBuffer(append([]byte(nil), whole.Bytes()[:cut]...))
			lg := readLog(t, torn)
			// A torn frame is cut off before the journal is appended to, as
			// OpenJournal does with the size ReadLog reports.
			intact := 0
			for _, end := range ends {
				if end <= cut {
					intact = end
				}
			}
			if lg.Truncated != (intact != cut) || lg.Size != int64(intact) {
				t.Fatalf("ReadLog reports Truncated=%v Size=%d for a cut at %d with the last whole frame ending at %d", lg.Truncated, lg.Size, cut, intact)
			}
			if cut < beginEnd {
				if len(lg.Windows) != 0 || len(lg.Pending()) != 0 {
					t.Fatalf("a cut at %d, before the begin record ends at %d, reads as %d windows and %d accepts pending", cut, beginEnd, len(lg.Windows), len(lg.Pending()))
				}
				return
			}
			if lg.InFlight() == nil {
				t.Fatal("a journal cut before its commit record does not need recovery")
			}
			torn.Truncate(intact)
			rec, err := Recover(buildPristine(t), &lg, Options{Journal: journal.NewWriter(torn)})
			if err != nil {
				t.Fatal(err)
			}
			sameBags(t, "recovered from a torn journal", want, bags(t, rec.Core))
			if err := rec.Core.VerifyAll(); err != nil {
				t.Fatal(err)
			}
			final := readLog(t, torn)
			if final.InFlight() != nil || final.CommittedCount() != 1 {
				t.Fatalf("journal not completed: inflight=%v committed=%d", final.InFlight() != nil, final.CommittedCount())
			}
			got := instDigestsOf(t, torn)
			if len(got) != len(wantDigests) {
				t.Fatalf("completed window journals %d steps, the uninterrupted run %d", len(got), len(wantDigests))
			}
			for idx, d := range wantDigests {
				if got[idx] != d {
					t.Fatalf("step %d: installed-delta digest %016x, the uninterrupted run journaled %016x", idx, got[idx], d)
				}
			}
		})
	}
}

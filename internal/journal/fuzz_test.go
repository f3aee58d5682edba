package journal

import (
	"bytes"
	"os"
	"slices"
	"testing"
)

// FuzzJournal feeds arbitrary bytes to ReadLog: it must never panic; Size
// must be where a walk of the frames, made here with DecodeFrame alone,
// stops; every frame that passes its CRC having been written by a Writer,
// the records must re-encode to the intact prefix byte for byte; and the
// accepts left pending must be exactly those that are no operator's and that
// no committed window names. The same bytes, read as writer calls, drive a
// Writer whose shippable mark is checked after each (checkShippable).
func FuzzJournal(f *testing.F) {
	var seed bytes.Buffer
	w := NewWriter(&seed)
	_ = w.Begin(testBegin())
	_ = w.Step(StepRecord{Index: 0, Key: "C:V:A,B", Work: 42, Terms: 3})
	_ = w.Step(StepRecord{Index: 2, Key: "I:V", Work: 7, Digest: 0xabcdef})
	_ = w.Commit(CommitRecord{TotalWork: 49, ElapsedNS: 1})
	_ = w.Begin(BeginRecord{Seq: 2, Mode: "sequential"})
	_ = w.Abort(AbortRecord{Reason: "boom"})
	f.Add(seed.Bytes())
	f.Add(seed.Bytes()[:seed.Len()-3])
	f.Add([]byte{})
	f.Add([]byte{TypeBegin, 0xff, 0xff, 0xff, 0xff})
	f.Add(append(seed.Bytes(), EncodeFrame(9, []byte("no such record"))...))
	if golden, err := os.ReadFile("testdata/parent.journal"); err == nil {
		f.Add(golden) // accepts between windows and inside one, ranges, own accepts
	}
	unseen, _ := encodeBegin(BeginRecord{Seq: 3, Accepts: Range{7, 8}})
	f.Add(append(seed.Bytes(), EncodeFrame(TypeBegin, unseen)...))
	if old, err := os.ReadFile("testdata/batch_in_begin.journal"); err == nil {
		f.Add(old)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		checkShippable(t, data[:min(len(data), 200)])
		lg, err := ReadLog(bytes.NewReader(data))
		if err != nil {
			return
		}
		whole := 0
		var accepts []uint64
		for {
			typ, p, n, err := DecodeFrame(data[whole:])
			if err != nil || n == 0 || typ < TypeStep || typ > TypeBegin {
				break
			}
			if a, _ := decodeAccept(p); typ == TypeAccept && !a.Own {
				accepts = append(accepts, a.Seq)
			}
			whole += n
		}
		if lg.Size != int64(whole) || lg.Truncated != (whole < len(data)) {
			t.Fatalf("Size=%d Truncated=%v, and the whole frames of the %d bytes end at %d", lg.Size, lg.Truncated, len(data), whole)
		}
		if out := reencode(t, data[:whole]); !bytes.Equal(out, data[:whole]) {
			t.Fatalf("the records re-encode to %d bytes that differ from the %d they were read from", len(out), whole)
		}
		installed := make(map[uint64]bool)
		for _, wl := range lg.Windows {
			if r := wl.Begin.Accepts; wl.Committed() {
				for seq := r.Lo; seq != 0 && seq <= r.Hi; seq++ {
					installed[seq] = true
				}
			}
		}
		var want, got []uint64
		for _, seq := range accepts {
			if !installed[seq] {
				want = append(want, seq)
			}
		}
		for _, a := range lg.Pending() {
			got = append(got, a.Seq)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("pending accepts %v; of the stream's %v, no committed window names %v", got, accepts, want)
		}
	})
}

// shipSink is a sink that records what its Writer marks shippable.
type shipSink struct {
	bytes.Buffer
	mark   int
	latest CommitRecord
}

func (s *shipSink) Shippable(latest CommitRecord) { s.mark, s.latest = s.Len(), latest }

// checkShippable drives a Writer with the calls ops spell, one a byte — an
// accept, an operator's window, a window naming the first pending accept, a
// step, a commit, an abort — and after each checks its shippable mark against
// an Assembler, fresh at the start, fed every record written: the mark sits
// at the end of the last record that leaves the Assembler with no window
// open, and comes with the last commit record it read. So an accept written
// inside a window ships only with the window's closing record.
func checkShippable(t *testing.T, ops []byte) {
	t.Helper()
	sink := &shipSink{}
	w := NewWriter(sink)
	open := false
	var asm Assembler
	var latest CommitRecord
	read, closed := 0, 0
	batch := []ViewBatch{{View: "A", Rows: []RowChange{{Key: "k", Count: 1}}}}
	for i, op := range ops {
		var err error
		switch op % 6 {
		case 0:
			_, _, err = w.Accept(AcceptRecord{UnixNano: int64(i + 1), Batch: batch})
		case 1:
			if !open {
				err, open = w.Begin(BeginRecord{Seq: i, Own: true, Batch: batch}), true
			}
		case 2:
			if p := w.Pending(); !open && len(p) > 0 {
				err, open = w.Begin(BeginRecord{Seq: i, Accepts: Range{p[0].Seq, p[0].Seq}}), true
			}
		case 3:
			if open {
				err = w.Step(StepRecord{Index: i})
			}
		case 4:
			if open {
				err, open = w.Commit(CommitRecord{TotalWork: int64(i), UnixNano: int64(i + 1)}), false
			}
		case 5:
			if open {
				err, open = w.Abort(AbortRecord{Reason: "abort"}), false
			}
		}
		if err != nil {
			t.Fatalf("writer call %d (op %d): %v", i, op%6, err)
		}
		n, err := Scan(sink.Bytes()[read:], func(typ byte, p []byte, end int) error {
			wl, err := asm.Feed(typ, p)
			if wl != nil && wl.Committed() {
				latest = *wl.Commit
			}
			if !asm.InFlight() {
				closed = read + end
			}
			return err
		})
		if read += n; err != nil || read != sink.Len() {
			t.Fatalf("after writer call %d the Assembler reads %d of the %d bytes written: %v", i, read, sink.Len(), err)
		}
		if sink.mark != closed || sink.latest != latest {
			t.Fatalf("after writer call %d (op %d) the mark is at %d with commit %+v; the records leave no window open at %d, the last commit is %+v",
				i, op%6, sink.mark, sink.latest, closed, latest)
		}
	}
}

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
// no committed window names.
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

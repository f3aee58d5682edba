package journal

import (
	"bytes"
	"os"
	"reflect"
	"testing"
)

// FuzzJournal feeds arbitrary bytes to ReadLog: it must never panic; Size
// must be where a walk of the frames, made here with DecodeFrame alone,
// stops; and whatever it does parse must re-encode to a journal that parses
// back to the same windows — and, every frame that passes its CRC having been
// written by a Writer, to the intact prefix byte for byte.
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
		f.Add(golden)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		lg, err := ReadLog(bytes.NewReader(data))
		if err != nil {
			return
		}
		whole := 0
		for {
			typ, _, n, err := DecodeFrame(data[whole:])
			if err != nil || n == 0 || typ < TypeBegin || typ > TypeAbort {
				break
			}
			whole += n
		}
		if lg.Size != int64(whole) || lg.Truncated != (whole < len(data)) {
			t.Fatalf("Size=%d Truncated=%v, and the whole frames of the %d bytes end at %d", lg.Size, lg.Truncated, len(data), whole)
		}
		out := encodeWindows(t, lg.Windows)
		if !bytes.Equal(out, data[:whole]) {
			t.Fatalf("the windows re-encode to %d bytes that differ from the %d they were read from", len(out), whole)
		}
		lg2, err := ReadLog(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("re-encoded journal unreadable: %v", err)
		}
		if lg2.Truncated || lg2.Size != int64(len(out)) {
			t.Fatalf("re-encoded journal torn at %d of %d", lg2.Size, len(out))
		}
		if !reflect.DeepEqual(lg2.Windows, lg.Windows) {
			t.Fatalf("round trip changed the windows:\n%+v\n%+v", lg.Windows, lg2.Windows)
		}
	})
}

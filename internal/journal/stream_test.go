package journal

import (
	"bytes"
	"errors"
	"testing"
)

// writeSampleLog journals two windows (one committed, one aborted) and
// returns the raw bytes.
func writeSampleLog(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.Begin(BeginRecord{Seq: 1, Planner: "minwork", Mode: "dag", StateDigest: 7, BatchDigest: BatchDigest(nil)}))
	must(w.Step(StepRecord{Index: 0, Key: "comp:J", Work: 12, Digest: 99}))
	must(w.Step(StepRecord{Index: 1, Key: "inst:J", Work: 3}))
	must(w.Commit(CommitRecord{TotalWork: 15}))
	must(w.Begin(BeginRecord{Seq: 2, Mode: "sequential"}))
	must(w.Abort(AbortRecord{Reason: "deadline"}))
	return buf.Bytes()
}

// TestDecodeRecordIncremental: feeding DecodeFrame the stream one byte at a
// time yields exactly the frames ReadLog sees — n==0 until a frame completes,
// never an error on a clean prefix.
func TestDecodeRecordIncremental(t *testing.T) {
	raw := writeSampleLog(t)
	var types []byte
	buf := []byte{}
	for i := 0; i < len(raw); i++ {
		buf = append(buf, raw[i])
		for {
			typ, _, n, err := DecodeFrame(buf)
			if err != nil {
				t.Fatalf("byte %d: %v", i, err)
			}
			if n == 0 {
				break
			}
			types = append(types, typ)
			buf = buf[n:]
		}
	}
	if len(buf) != 0 {
		t.Fatalf("%d undecoded trailing bytes", len(buf))
	}
	want := []byte{TypeBegin, TypeStep, TypeStep, TypeCommit, TypeBegin, TypeAbort}
	if len(types) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(types), len(want))
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("record %d: type %d, want %d", i, types[i], want[i])
		}
	}
}

// TestDecodeRecordCorruption: a bit flip anywhere inside a complete frame —
// its type byte included, which the CRC covers — is ErrCorruptFrame, not
// "incomplete".
func TestDecodeRecordCorruption(t *testing.T) {
	raw := writeSampleLog(t)
	// Flip a payload bit in the first frame (offset 3 is inside the begin
	// record's payload for any plausible encoding).
	for _, off := range []int{3, 10, len(raw) / 2 % 20} {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x40
		_, _, _, err := DecodeFrame(mut)
		if err == nil {
			// The flip may have landed in the length varint making the frame
			// look longer — then it must decode as incomplete, never as a
			// valid frame with different content.
			typ, _, n, _ := DecodeFrame(mut)
			if n != 0 && mut[0] == raw[0] && typ == raw[0] {
				t.Fatalf("offset %d: corrupted frame decoded as valid", off)
			}
			continue
		}
		if !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("offset %d: error %v does not wrap ErrCorruptFrame", off, err)
		}
	}
	// The type byte.
	mut := append([]byte(nil), raw...)
	mut[0] = 42
	if _, _, _, err := DecodeFrame(mut); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("flipped type byte: %v", err)
	}
}

// TestAssemblerReassemblesWindows: records fed in stream order yield the
// same windows ReadLog parses.
func TestAssemblerReassemblesWindows(t *testing.T) {
	raw := writeSampleLog(t)
	ref, err := ReadLog(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}

	var got []*WindowLog
	var asm Assembler
	buf := raw
	for len(buf) > 0 {
		typ, payload, n, err := DecodeFrame(buf)
		if err != nil || n == 0 {
			t.Fatalf("decode: n=%d err=%v", n, err)
		}
		wl, err := asm.Feed(typ, payload)
		if err != nil {
			t.Fatal(err)
		}
		if wl != nil {
			got = append(got, wl)
		}
		buf = buf[n:]
	}
	if asm.InFlight() {
		t.Fatal("assembler left a window open")
	}
	if len(got) != len(ref.Windows) {
		t.Fatalf("assembled %d windows, ReadLog parsed %d", len(got), len(ref.Windows))
	}
	for i, wl := range got {
		rw := ref.Windows[i]
		if wl.Begin.Seq != rw.Begin.Seq || wl.Committed() != rw.Committed() || len(wl.Steps) != len(rw.Steps) {
			t.Fatalf("window %d: assembled %+v, parsed %+v", i, wl, rw)
		}
		for j := range wl.Steps {
			if wl.Steps[j] != rw.Steps[j] {
				t.Fatalf("window %d step %d: %+v vs %+v", i, j, wl.Steps[j], rw.Steps[j])
			}
		}
	}
	if !got[0].Committed() || got[0].Commit.TotalWork != 15 {
		t.Fatalf("window 0: %+v", got[0].Commit)
	}
	if got[1].Abort == nil || got[1].Abort.Reason != "deadline" {
		t.Fatalf("window 1: %+v", got[1].Abort)
	}
}

// TestAssemblerGrammar: out-of-grammar records are errors, and Reset clears
// an open window.
func TestAssemblerGrammar(t *testing.T) {
	raw := writeSampleLog(t)
	var frames [][2]any // typ, payload
	buf := raw
	for len(buf) > 0 {
		typ, payload, n, _ := DecodeFrame(buf)
		frames = append(frames, [2]any{typ, append([]byte(nil), payload...)})
		buf = buf[n:]
	}
	feed := func(a *Assembler, i int) (*WindowLog, error) {
		return a.Feed(frames[i][0].(byte), frames[i][1].([]byte))
	}

	var a Assembler
	if _, err := feed(&a, 1); err == nil { // step with no begin
		t.Fatal("step outside a window accepted")
	}
	if _, err := feed(&a, 3); err == nil { // commit with no begin
		t.Fatal("commit outside a window accepted")
	}
	if _, err := feed(&a, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := feed(&a, 0); err == nil { // begin inside open window
		t.Fatal("nested begin accepted")
	}
	if !a.InFlight() {
		t.Fatal("window not open after begin")
	}
	a.Reset()
	if a.InFlight() {
		t.Fatal("Reset left the window open")
	}

	// Accepts: numbered in sequence, and a begin names only ones held.
	accept := func(seq uint64) error {
		_, err := a.Feed(TypeAccept, encodeAccept(AcceptRecord{Seq: seq}))
		return err
	}
	begin := func(r Range) error {
		p, _ := encodeBegin(BeginRecord{Seq: 9, Accepts: r})
		_, err := a.Feed(TypeBegin, p)
		return err
	}
	if err := accept(4); err != nil {
		t.Fatal(err)
	}
	if err := accept(6); err == nil {
		t.Fatal("accept 6 taken behind accept 4")
	}
	if err := begin(Range{4, 5}); err == nil {
		t.Fatal("a begin record naming an accept never fed was taken")
	}
	if err := begin(Range{4, 4}); err != nil {
		t.Fatal(err)
	}
	if err := accept(5); err != nil { // inside the open window
		t.Fatal(err)
	}
	a.Reset() // rewound to the begin record: accept 5 is fed again
	if err := accept(5); err != nil {
		t.Fatalf("after a rewind: %v", err)
	}

	// An operator's accept is named by the begin record behind it, also when
	// the stream is rewound to that begin record, and by nothing else.
	if _, err := a.Feed(TypeAccept, encodeAccept(AcceptRecord{Seq: 6, Own: true})); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := begin(Range{6, 6}); err != nil || !a.cur.Begin.Own {
			t.Fatalf("begin %d of the operator's window: %v", i, err)
		}
		a.Reset()
	}
	if err := accept(7); err != nil {
		t.Fatal(err)
	}
	if err := begin(Range{6, 6}); err == nil {
		t.Fatal("an operator's accept was named by a begin record not directly behind it")
	}
}

// TestChunkCRC: the chunk checksum detects any single-bit flip.
func TestChunkCRC(t *testing.T) {
	raw := writeSampleLog(t)
	sum := ChunkCRC(raw)
	for off := 0; off < len(raw); off += 13 {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 1
		if ChunkCRC(mut) == sum {
			t.Fatalf("bit flip at %d not detected", off)
		}
	}
}

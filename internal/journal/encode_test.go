package journal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"math/rand"
	"testing"

	"repro/internal/strategy"
)

// The payload of each record as its own slice, for the tests that feed
// payloads to the decoders and the assembler.

func encodeAccept(a AcceptRecord) []byte { return a.appendTo(nil) }

func encodeBegin(b BeginRecord) ([]byte, error) { return b.appendTo(nil), nil }

func encodeStep(s StepRecord) []byte { return s.appendTo(nil) }

func encodeCommit(c CommitRecord) []byte { return c.appendTo(nil) }

// The encoders as they stood before records were encoded in place, each
// payload built by appending and copied into its frame by EncodeFrame: the
// bytes the in-place encoders are held to.

func oldEncodeAccept(a AcceptRecord) []byte {
	p := binary.AppendUvarint(nil, a.Seq)
	p = binary.AppendVarint(p, a.UnixNano)
	var flags byte
	if a.Own {
		flags = 1
	}
	p = binary.AppendUvarint(append(p, flags), uint64(len(a.Batch)))
	for _, vb := range a.Batch {
		p = AppendRows(AppendString(p, vb.View), vb.Rows)
	}
	return p
}

func oldEncodeBegin(b BeginRecord) ([]byte, error) {
	p := binary.AppendUvarint(nil, uint64(b.Seq))
	p = AppendString(p, b.Planner)
	p = AppendString(p, b.Mode)
	p = binary.AppendUvarint(p, uint64(b.Workers))
	var flags byte
	if b.SkipEmptyDeltas {
		flags |= 1
	}
	if b.ProbeWork {
		flags |= 2
	}
	p = append(p, flags)
	p = binary.BigEndian.AppendUint64(p, b.StateDigest)
	p = binary.BigEndian.AppendUint64(p, b.BatchDigest)
	p = binary.AppendUvarint(p, uint64(len(b.Strategy)))
	for _, e := range b.Strategy {
		switch x := e.(type) {
		case strategy.Comp:
			p = AppendString(append(p, 0), x.View)
			p = binary.AppendUvarint(p, uint64(len(x.Over)))
			for _, o := range x.Over {
				p = AppendString(p, o)
			}
		case strategy.Inst:
			p = AppendString(append(p, 1), x.View)
		default:
			return nil, fmt.Errorf("journal: unknown expression type %T", e)
		}
	}
	p = binary.AppendUvarint(p, b.Accepts.Lo)
	return binary.AppendUvarint(p, b.Accepts.Hi), nil
}

func oldEncodeCommit(c CommitRecord) []byte {
	p := binary.AppendVarint(nil, c.TotalWork)
	p = binary.AppendVarint(p, c.ElapsedNS)
	p = binary.AppendVarint(p, c.UnixNano)
	return binary.AppendVarint(p, c.AcceptUnixNano)
}

func oldEncodeStep(s StepRecord) []byte {
	p := binary.AppendUvarint(nil, uint64(s.Index))
	p = AppendString(p, s.Key)
	p = binary.AppendVarint(p, s.Work)
	p = binary.AppendUvarint(p, uint64(s.Terms))
	var flags byte
	if s.Skipped {
		flags = 1
	}
	return binary.BigEndian.AppendUint64(append(p, flags), s.Digest)
}

// oldEncodeFrame is EncodeFrame as it stood: the head, the payload copied
// behind it, and the CRC over both.
func oldEncodeFrame(typ byte, payload []byte) []byte {
	frame := append([]byte{typ}, binary.AppendUvarint(nil, uint64(len(payload)))...)
	frame = append(frame, payload...)
	return binary.BigEndian.AppendUint64(frame, crc64.Checksum(frame, crc64.MakeTable(crc64.ECMA)))
}

// oldBatchDigest is BatchDigest as journals recorded it, through hash/crc64.
func oldBatchDigest(batch []ViewBatch) uint64 {
	tab := crc64.MakeTable(crc64.ECMA)
	var h uint64
	for _, vb := range batch {
		view := crc64.Update(0, tab, []byte(vb.View+"\x00"))
		for _, rc := range vb.Rows {
			h += uint64(rc.Count) * crc64.Update(view, tab, []byte(rc.Key))
		}
	}
	return h
}

// randomBatch draws a batch over up to four views, with keys from empty to
// longer than a varint's first byte can count, and counts of either sign.
func randomBatch(rng *rand.Rand) []ViewBatch {
	var batch []ViewBatch
	for v, n := 0, rng.Intn(5); v < n; v++ {
		vb := ViewBatch{View: fmt.Sprintf("V%d", rng.Intn(1000))}
		for r, rows := 0, rng.Intn(300); r < rows; r++ {
			key := make([]byte, rng.Intn(200))
			rng.Read(key)
			vb.Rows = append(vb.Rows, RowChange{Key: string(key), Count: rng.Int63n(1<<40) - 1<<39})
		}
		batch = append(batch, vb)
	}
	return batch
}

// TestInPlaceEncodingWritesTheOldBytes: for drawn batches and begin records,
// what the writer hands its sink — an operator window's accept and begin
// frames, or an ingester's, then its steps and commit — is
// byte for byte what the append-and-copy encoders made of the same records.
func TestInPlaceEncodingWritesTheOldBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 200; trial++ {
		b := BeginRecord{
			Seq: rng.Intn(1 << 20), Planner: "minwork", Mode: "dag", Workers: rng.Intn(300),
			SkipEmptyDeltas: rng.Intn(2) == 0, StateDigest: rng.Uint64(), BatchDigest: rng.Uint64(),
			Strategy: strategy.Strategy{strategy.Comp{View: "Q", Over: []string{"A", "B"}}, strategy.Inst{View: "A"}},
			Own:      trial%2 == 0, Batch: randomBatch(rng),
		}
		for i, n := 0, rng.Intn(200); i < n; i++ {
			b.Strategy = append(b.Strategy, strategy.Inst{View: fmt.Sprintf("V%d", i)})
		}
		var got bytes.Buffer
		w := NewWriter(&got)
		var want []byte
		var acceptNS int64 // what Commit stamps: an ingester's accept time
		if !b.Own {
			acceptNS = rng.Int63()
			a := AcceptRecord{UnixNano: acceptNS, Batch: b.Batch}
			if _, _, err := w.Accept(a); err != nil {
				t.Fatal(err)
			}
			a.Seq = 1
			want = append(want, oldEncodeFrame(TypeAccept, oldEncodeAccept(a))...)
			b.Accepts = Range{1, 1}
		}
		if err := w.Begin(b); err != nil {
			t.Fatal(err)
		}
		if b.Own {
			b.Accepts = Range{1, 1}
			want = append(want, oldEncodeFrame(TypeAccept, oldEncodeAccept(AcceptRecord{Seq: 1, Own: true, Batch: b.Batch}))...)
		}
		p, err := oldEncodeBegin(b)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, oldEncodeFrame(TypeBegin, p)...)
		st := StepRecord{Index: rng.Intn(1000), Key: "C:Q:A,B", Work: rng.Int63(), Terms: 3, Skipped: true, Digest: rng.Uint64()}
		c := CommitRecord{TotalWork: rng.Int63(), ElapsedNS: -rng.Int63(), UnixNano: rng.Int63()}
		if err := w.Step(st); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(c); err != nil {
			t.Fatal(err)
		}
		c.AcceptUnixNano = acceptNS
		want = append(want, oldEncodeFrame(TypeStep, oldEncodeStep(st))...)
		want = append(want, oldEncodeFrame(TypeCommit, oldEncodeCommit(c))...)
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("trial %d: the writer wrote %d bytes, the old encoders %d", trial, got.Len(), len(want))
		}
	}
}

// TestBatchDigestIsTheCRCFormula: on drawn batches, BatchDigest — the sum
// of RowDigest over the rows from each view's ViewSeed — is the value
// journals recorded, bit for bit.
func TestBatchDigestIsTheCRCFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 100; trial++ {
		batch := randomBatch(rng)
		if got, want := BatchDigest(batch), oldBatchDigest(batch); got != want {
			t.Fatalf("trial %d: BatchDigest %016x, the CRC formula %016x", trial, got, want)
		}
	}
}

// TestEncodeFrameIsTheOldFrame: EncodeFrame, which builds its frame in
// place behind a gap, writes the old head, payload and CRC for payloads
// whose lengths take one to three varint bytes.
func TestEncodeFrameIsTheOldFrame(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 300, 16383, 16384, 70000} {
		payload := bytes.Repeat([]byte{byte(n)}, n)
		if got, want := EncodeFrame(TypeStep, payload), oldEncodeFrame(TypeStep, payload); !bytes.Equal(got, want) {
			t.Fatalf("a %d-byte payload: EncodeFrame wrote %d bytes, the old encoder %d", n, len(got), len(want))
		}
	}
}

package snapshot

import (
	"bytes"
	"testing"
)

// FuzzSnapshotRead throws arbitrary bytes at the snapshot decoder: as a whole
// snapshot, and as the payload of each frame of a valid one, sealed with a
// right CRC — the CRC stops almost every mutation of a whole snapshot at its
// frame, and the payloads are where the cursor's field reads and the
// accumulator decoder are. The invariants: Read never panics; a failed Read
// leaves the warehouse exactly as it was; a successful Read yields a state
// that round-trips through Write/Read to the same bags.
func FuzzSnapshotRead(f *testing.F) {
	w := build(f)
	valid := snapshotOf(f, w)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("WHSNAP01"))
	f.Add(valid[:len(valid)/2])
	f.Add(append(append([]byte(nil), valid...), 0x00))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0xFF
	f.Add(flipped)
	f.Add(hugeValueWHSNAP01())
	f.Add(hugeNameWHSNAP01(f))
	frames := framesOf(f, valid)
	for _, fr := range frames {
		f.Add(fr.payload)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		readOrKeep(t, data)
		for i := range frames {
			readOrKeep(t, withPayload(t, valid, i, data))
		}
	})
}

// readOrKeep reads snap into a warehouse of build's catalog: a failed read
// must leave it as it was, and a state read must round-trip.
func readOrKeep(t *testing.T, snap []byte) {
	target := build(t)
	before := viewState(target)
	if err := Read(target, bytes.NewReader(snap)); err != nil {
		if !sameState(before, viewState(target)) {
			t.Fatalf("failed Read mutated the warehouse: %v", err)
		}
		return
	}
	// Accepted input: the restored state must round-trip.
	got := viewState(target)
	var buf bytes.Buffer
	if err := Write(target, &buf); err != nil {
		t.Fatalf("re-snapshotting accepted state: %v", err)
	}
	again := build(t)
	if err := Read(again, bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("re-reading re-snapshot: %v", err)
	}
	if !sameState(got, viewState(again)) {
		t.Fatal("accepted snapshot does not round-trip")
	}
}

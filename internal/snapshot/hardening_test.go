package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/journal"
)

// viewState captures every view's sorted (tuple, count) bag as strings.
func viewState(w *core.Warehouse) map[string][]string {
	state := make(map[string][]string)
	for _, name := range w.ViewNames() {
		for _, r := range w.MustView(name).SortedRows() {
			state[name] = append(state[name], fmt.Sprintf("%s x%d", r.Tuple, r.Count))
		}
	}
	return state
}

func sameState(a, b map[string][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		bv := b[k]
		if len(av) != len(bv) {
			return false
		}
		for i := range av {
			if av[i] != bv[i] {
				return false
			}
		}
	}
	return true
}

// frame is one frame of a snapshot, as journal.Scan reads it.
type frame struct {
	typ     byte
	payload []byte
}

func framesOf(t testing.TB, snap []byte) []frame {
	t.Helper()
	var fs []frame
	if n, err := journal.Scan(snap, func(typ byte, payload []byte, _ int) error {
		fs = append(fs, frame{typ, payload})
		return nil
	}); err != nil || n != len(snap) {
		t.Fatalf("scanned %d of %d bytes: %v", n, len(snap), err)
	}
	return fs
}

// encode seals each frame with a right CRC.
func encode(fs ...frame) []byte {
	var out []byte
	for _, f := range fs {
		var body int
		out, body = journal.BeginFrame(out)
		out, _ = journal.EndFrame(append(out, f.payload...), f.typ, body)
	}
	return out
}

// withPayload is snap with the payload of its i-th frame replaced by p.
func withPayload(t testing.TB, snap []byte, i int, p []byte) []byte {
	fs := framesOf(t, snap)
	fs[i].payload = p
	return encode(fs...)
}

func viewPayload(name string, kind byte, entries uint64) []byte {
	return binary.AppendUvarint(append(journal.AppendString(nil, name), kind), entries)
}

// whsnap01 is a snapshot in the format written before snapshots were frames:
// the magic, the fields, and the CRC-64/ECMA of both, or one off it.
func whsnap01(fields []byte, goodCRC bool) []byte {
	snap := append([]byte(oldMagic), fields...)
	sum := crc64.Checksum(snap, crc64.MakeTable(crc64.ECMA))
	if !goodCRC {
		sum++
	}
	return binary.BigEndian.AppendUint64(snap, sum)
}

// whsnap01Fields are the fields that format held for w's state.
func whsnap01Fields(w *core.Warehouse) []byte {
	p := binary.AppendUvarint(nil, uint64(len(w.ViewNames())))
	for _, name := range w.ViewNames() {
		p = journal.AppendString(p, name)
		if v := w.MustView(name); v.IsAggregate() {
			p = binary.AppendUvarint(append(p, kindAgg), uint64(v.Cardinality()))
			v.Table().ScanGroups(func(key string, support int64, accums []delta.Accum) bool {
				p = binary.AppendVarint(journal.AppendString(p, key), support)
				for i := range accums {
					p = journal.AppendString(p, string(accums[i].AppendBinary(nil)))
				}
				return true
			})
			continue
		}
		tbl := w.MustView(name).Table()
		p = binary.AppendUvarint(append(p, kindTable), uint64(tbl.DistinctCount()))
		tbl.ScanEncoded(func(key string, count int64) bool {
			p = binary.AppendVarint(journal.AppendString(p, key), count)
			return true
		})
	}
	return p
}

// The accumulator states of the one group of hugeValue's A: a SUM with zero
// sums, and a MIN with zero sums and one value whose length claims 2^62.
var (
	zeroSum   = []byte{0, 0, 0}
	hugeValue = binary.AppendUvarint([]byte{0, 0, 1}, 1<<62)
)

// hugeValueWHSNAP01 is the 57-byte snapshot of build's catalog in the format
// before frames: R and J empty, and one group of A whose MIN value claims
// 2^62 bytes. Its checksum is wrong; that format's reader decoded everything
// before it looked.
func hugeValueWHSNAP01() []byte {
	p := binary.AppendUvarint(nil, 3)
	p = append(journal.AppendString(p, "R"), kindTable, 0)
	p = append(journal.AppendString(p, "J"), kindTable, 0)
	p = append(journal.AppendString(p, "A"), kindAgg, 1)
	p = binary.AppendVarint(journal.AppendString(p, intRow(1).Encode()), 1)
	p = journal.AppendString(journal.AppendString(p, string(zeroSum)), string(hugeValue))
	return whsnap01(p, false)
}

// hugeNameWHSNAP01 is the 245-byte snapshot of build's state in the format
// before frames, checksum right, with a length prefix of 2^31 inserted before
// the first view name's.
func hugeNameWHSNAP01(t testing.TB) []byte {
	fields := whsnap01Fields(build(t))
	return whsnap01(append(binary.AppendUvarint([]byte{fields[0]}, 1<<31), fields[1:]...), true)
}

// refusedWithinBudget reads snap into a warehouse of build's catalog, which
// must refuse it, unchanged, having allocated less than 1 MiB.
func refusedWithinBudget(t *testing.T, what string, snap []byte) {
	t.Helper()
	target := build(t)
	before := viewState(target)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err := Read(target, bytes.NewReader(snap))
	runtime.ReadMemStats(&m1)
	if err == nil {
		t.Fatalf("%s: read", what)
	}
	if n := m1.TotalAlloc - m0.TotalAlloc; n >= 1<<20 {
		t.Fatalf("%s: reading %d bytes allocated %d bytes (%v)", what, len(snap), n, err)
	}
	if !sameState(before, viewState(target)) {
		t.Fatalf("%s: the refused snapshot mutated the warehouse (%v)", what, err)
	}
}

// TestReadRefusesAHugeAccumulatorValue: a MIN value whose length claims 2^62
// bytes is refused without a panic, both in the format before frames — whose
// reader panicked on it (makeslice: len out of range) — and sealed in frames
// whose CRCs are right, so that the claim reaches the cursor.
func TestReadRefusesAHugeAccumulatorValue(t *testing.T) {
	old := hugeValueWHSNAP01()
	if len(old) != 57 {
		t.Fatalf("the WHSNAP01 input is %d bytes, want 57", len(old))
	}
	refusedWithinBudget(t, "WHSNAP01", old)
	group := binary.AppendVarint(journal.AppendString([]byte{1}, intRow(1).Encode()), 1)
	refusedWithinBudget(t, "frames", encode(
		frame{typeHeader, []byte{3}},
		frame{typeView, viewPayload("R", kindTable, 0)},
		frame{typeView, viewPayload("J", kindTable, 0)},
		frame{typeView, viewPayload("A", kindAgg, 1)},
		frame{typeChunk, append(append(group, zeroSum...), hugeValue...)},
		frame{typeEnd, nil},
	))
}

// TestReadAllocationIsBoundedByInput: a view name whose length prefix claims
// 2^31 bytes costs what the input holds, not what it claims — the reader of
// the format before frames allocated 2 048 MiB for the 245-byte input.
func TestReadAllocationIsBoundedByInput(t *testing.T) {
	old := hugeNameWHSNAP01(t)
	if len(old) != 245 {
		t.Fatalf("the WHSNAP01 input is %d bytes, want 245", len(old))
	}
	refusedWithinBudget(t, "WHSNAP01", old)
	data := snapshotOf(t, build(t))
	view := framesOf(t, data)[1].payload
	refusedWithinBudget(t, "frames", withPayload(t, data, 1, append(binary.AppendUvarint(nil, 1<<31), view...)))
}

// TestWHSNAP01IsRefusedByName: a snapshot in the format before frames is
// refused with an error that says so, not as a damaged file.
func TestWHSNAP01IsRefusedByName(t *testing.T) {
	err := Read(build(t), bytes.NewReader(whsnap01(whsnap01Fields(build(t)), true)))
	if err == nil || !strings.Contains(err.Error(), "WHSNAP01") {
		t.Fatalf("a WHSNAP01 snapshot: %v", err)
	}
}

// TestReadTruncatedLeavesStateIntact feeds every possible truncation of a
// valid snapshot to Read: each must fail with a clear error and leave the
// target warehouse byte-for-byte as it was.
func TestReadTruncatedLeavesStateIntact(t *testing.T) {
	w := build(t)
	data := snapshotOf(t, w)

	target := build(t)
	before := viewState(target)
	for cut := 0; cut < len(data); cut++ {
		err := Read(target, bytes.NewReader(data[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(data))
		}
		if !strings.HasPrefix(err.Error(), "snapshot:") {
			t.Fatalf("truncation at %d: error lacks package context: %v", cut, err)
		}
		if !sameState(before, viewState(target)) {
			t.Fatalf("truncation at %d/%d mutated the warehouse: %v", cut, len(data), err)
		}
	}
	// A mid-stream cut must read as truncation, not a clean end of input.
	err := Read(target, bytes.NewReader(data[:len(data)/2]))
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("mid-stream truncation not reported as unexpected EOF: %v", err)
	}
	// And the intact snapshot must still restore fine afterwards.
	if err := Read(target, bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
}

// TestReadTrailingGarbage: bytes after the end frame mean the input is not a
// snapshot (concatenated, padded, or corrupt) — reject, without mutating.
func TestReadTrailingGarbage(t *testing.T) {
	w := build(t)
	data := snapshotOf(t, w)

	for _, extra := range [][]byte{{0x00}, []byte("junk"), append([]byte(nil), data...)} {
		target := build(t)
		before := viewState(target)
		err := Read(target, bytes.NewReader(append(append([]byte(nil), data...), extra...)))
		if err == nil || !strings.Contains(err.Error(), "trailing garbage") {
			t.Fatalf("%d trailing bytes: %v", len(extra), err)
		}
		if !sameState(before, viewState(target)) {
			t.Fatalf("%d trailing bytes mutated the warehouse", len(extra))
		}
	}
}

// TestReadCorruptionLeavesStateIntact: every single-byte corruption of the
// snapshot either fails cleanly (warehouse untouched) or — never — succeeds
// with wrong data. The frames' CRCs make the "accepted" arm impossible.
func TestReadCorruptionLeavesStateIntact(t *testing.T) {
	w := build(t)
	data := snapshotOf(t, w)

	target := build(t)
	before := viewState(target)
	for pos := 0; pos < len(data); pos++ {
		corrupt := append([]byte(nil), data...)
		corrupt[pos] ^= 0xFF
		if err := Read(target, bytes.NewReader(corrupt)); err == nil {
			t.Fatalf("bit flip at %d/%d accepted", pos, len(data))
		}
		if !sameState(before, viewState(target)) {
			t.Fatalf("bit flip at %d/%d mutated the warehouse", pos, len(data))
		}
	}
}

// TestReadHugeLengthPrefix: a length prefix claiming billions of bytes or
// entries must fail on decode, not attempt a giant allocation — whether it is
// a frame's own length, or a field's inside a frame whose CRC is right.
func TestReadHugeLengthPrefix(t *testing.T) {
	data := snapshotOf(t, build(t))
	fs := framesOf(t, data)
	huge := binary.AppendUvarint(nil, 1<<42)
	cases := map[string][]byte{
		"frame length": append([]byte{typeHeader}, huge...),
		"view name":    withPayload(t, data, 1, append(huge, fs[1].payload...)),
		"chunk length": withPayload(t, data, 2, append(huge, fs[2].payload...)),
		"view entries": withPayload(t, data, 1, append(journal.AppendString(nil, "R"), append([]byte{kindTable}, huge...)...)),
	}
	for what, corrupt := range cases {
		refusedWithinBudget(t, what, corrupt)
	}
}

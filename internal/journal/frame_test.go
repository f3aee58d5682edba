package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// encodeFrame wraps a payload in a frame without appending it anywhere.
func encodeFrame(typ byte, payload []byte) []byte {
	buf, start := appendFrame(nil, typ, func(p []byte) []byte { return append(p, payload...) })
	return buf[start:]
}

// stickyErr is the writer's sticky error, if any append or sync has failed.
func stickyErr(w *Writer) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// TestScanStops: Scan tells an incomplete tail from a corrupt one and from a
// record its caller refused, and counts only the frames the caller took.
func TestScanStops(t *testing.T) {
	one, two := encodeFrame(7, []byte("one")), encodeFrame(8, []byte("two"))
	whole := append(append([]byte(nil), one...), two...)
	flipped := append([]byte(nil), whole...)
	flipped[len(one)+3] ^= 1
	refuse := errors.New("refused")
	for _, tc := range []struct {
		name   string
		buf    []byte
		refuse byte // fn refuses this type
		n      int
		err    error
	}{
		{"whole", whole, 0, len(whole), nil},
		{"empty", nil, 0, 0, nil},
		{"incomplete", whole[:len(whole)-1], 0, len(one), nil},
		{"incomplete header", whole[:len(one)+1], 0, len(one), nil},
		{"corrupt", flipped, 0, len(one), ErrCorruptFrame},
		{"refused", whole, 8, len(one), refuse},
	} {
		var ends []int
		n, err := Scan(tc.buf, func(typ byte, payload []byte, end int) error {
			if typ == tc.refuse {
				return refuse
			}
			ends = append(ends, end)
			return nil
		})
		if n != tc.n || !errors.Is(err, tc.err) || (tc.err == nil && err != nil) {
			t.Errorf("%s: Scan = %d, %v; want %d, %v", tc.name, n, err, tc.n, tc.err)
		}
		if len(ends) > 0 && ends[len(ends)-1] != n {
			t.Errorf("%s: the last frame taken ends at %d, Scan reports %d", tc.name, ends[len(ends)-1], n)
		}
	}
}

// TestFileAndStreamPolicies: the one place the two readers differ. A frame of
// a type the window journal does not have, CRC and all, is a corrupt frame to
// the Assembler — a stream fetches it again — and the start of the torn tail
// to ReadLog; a begin record inside an open window is an error to the
// Assembler and leaves an abandoned window in ReadLog; and a record behind a
// closed window is outside any window for both.
func TestFileAndStreamPolicies(t *testing.T) {
	raw := writeSampleLog(t) // a committed window, an aborted one
	alien := encodeFrame(9, []byte("no such record"))

	var asm Assembler
	if _, err := asm.Feed(9, []byte("no such record")); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("Assembler.Feed of an unknown type: %v", err)
	}
	lg, err := ReadLog(bytes.NewReader(append(append([]byte(nil), raw...), alien...)))
	if err != nil || !lg.Truncated || lg.Size != int64(len(raw)) || len(lg.Windows) != 2 {
		t.Fatalf("ReadLog over an unknown type: %d windows, Truncated=%v Size=%d of %d, %v", len(lg.Windows), lg.Truncated, lg.Size, len(raw), err)
	}

	var begin, commit []byte
	_, _ = Scan(raw, func(typ byte, payload []byte, end int) error {
		if frame := raw[end-len(encodeFrame(typ, payload)) : end]; typ == TypeBegin && begin == nil {
			begin = frame
		} else if typ == TypeCommit && commit == nil {
			commit = frame
		}
		return nil
	})
	twice := append(append([]byte(nil), begin...), begin...)
	lg, err = ReadLog(bytes.NewReader(twice))
	if err != nil || len(lg.Windows) != 2 || lg.Windows[0].Closed() || lg.InFlight() != &lg.Windows[1] {
		t.Fatalf("ReadLog over begin, begin: %d windows, %v", len(lg.Windows), err)
	}
	asm.Reset()
	_, err = Scan(twice, func(typ byte, payload []byte, _ int) error {
		_, err := asm.Feed(typ, payload)
		return err
	})
	if err == nil || errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("the Assembler took a begin record inside an open window: %v", err)
	}

	if _, err := ReadLog(bytes.NewReader(append(append([]byte(nil), raw...), commit...))); err == nil {
		t.Fatal("ReadLog took a commit record behind a closed window")
	}
}

// TestOpenAppendCutsTheTornTail: what is appended after a reopen follows the
// last whole frame, whatever the tail was, and a record the vocabulary cannot
// read leaves the file alone.
func TestOpenAppendCutsTheTornTail(t *testing.T) {
	one, two := encodeFrame(7, []byte("one")), encodeFrame(8, []byte("two"))
	flipped := append([]byte(nil), two...)
	flipped[2] ^= 1
	for name, tail := range map[string][]byte{"none": nil, "incomplete": two[:len(two)-2], "corrupt": append(flipped, one...)} {
		path := filepath.Join(t.TempDir(), "log")
		if err := os.WriteFile(path, append(append([]byte(nil), one...), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		var seen []byte
		f, err := OpenAppend(path, func(typ byte, _ []byte, _ int) error {
			seen = append(seen, typ)
			return nil
		}, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, err = f.Write(two)
		if err := errors.Join(err, f.Close()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, _ := os.ReadFile(path)
		if !bytes.Equal(seen, []byte{7}) || !bytes.Equal(got, append(append([]byte(nil), one...), two...)) {
			t.Errorf("%s: the reopen saw types %v and left %d bytes, want the two whole frames (%d)", name, seen, len(got), len(one)+len(two))
		}
	}

	path := filepath.Join(t.TempDir(), "absent")
	f, err := OpenAppend(path, func(byte, []byte, int) error { return errors.New("no frame to see") }, nil)
	if err != nil {
		t.Fatalf("opening a log that does not exist yet: %v", err)
	}
	f.Close()

	refuse := errors.New("unreadable record")
	before := append(append([]byte(nil), one...), two[:4]...)
	if err := os.WriteFile(path, before, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenAppend(path, func(byte, []byte, int) error { return refuse }, nil); !errors.Is(err, refuse) {
		t.Fatalf("a format error opened the log: %v", err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, before) {
		t.Fatal("a log that could not be read was cut")
	}
}

// failAfter is a sink whose nth Write (from 1) and every Sync fail.
type failAfter struct {
	n      int
	writes [][]byte
}

func (s *failAfter) Write(p []byte) (int, error) {
	if len(s.writes)+1 >= s.n {
		return len(p) / 2, errors.New("disk full")
	}
	s.writes = append(s.writes, p)
	return len(p), nil
}

func (s *failAfter) Sync() error { return errors.New("sync refused") }

// TestAppenderErrorsAreSticky: after a failed write, or a failed sync, the
// journal's one appender — the Writer — lets nothing more reach the sink, and
// every call reports the first failure.
func TestAppenderErrorsAreSticky(t *testing.T) {
	sink := &failAfter{n: 2}
	w := NewWriter(sink)
	if _, _, err := w.Accept(AcceptRecord{}); err != nil {
		t.Fatal(err)
	}
	_, _, first := w.Accept(AcceptRecord{})
	if first == nil || !strings.Contains(first.Error(), "disk full") {
		t.Fatalf("the failed write returned %v", first)
	}
	sink.n = 100
	if _, _, err := w.Accept(AcceptRecord{}); err != first || stickyErr(w) != first || len(sink.writes) != 1 {
		t.Fatalf("after a failed write: Accept = %v, Err = %v, %d writes reached the sink", err, stickyErr(w), len(sink.writes))
	}

	sink = &failAfter{n: 100}
	w = NewWriter(sink)
	_, end, err := w.Accept(AcceptRecord{})
	if err != nil {
		t.Fatal(err)
	}
	first = w.Sync(end)
	if first == nil || !strings.Contains(first.Error(), "sync refused") {
		t.Fatalf("the failed sync returned %v", first)
	}
	if _, _, err := w.Accept(AcceptRecord{}); err != first || len(sink.writes) != 1 {
		t.Fatalf("after a failed sync: Accept = %v, %d writes reached the sink", err, len(sink.writes))
	}
}

// TestCursorBoundsAndNames: every way a payload can lie about its fields is
// an error naming the record and the field, the first one sticks, and bytes
// left over are an error too.
func TestCursorBoundsAndNames(t *testing.T) {
	long := bytes.Repeat([]byte{0xff}, 11) // a varint that never ends
	for _, tc := range []struct {
		name    string
		payload []byte
		read    func(c *Cursor)
		want    string
	}{
		{"short uvarint", []byte{0x80}, func(c *Cursor) { c.Uvarint("seq") }, "test: rec seq: unexpected EOF"},
		{"overlong varint", long, func(c *Cursor) { c.Varint("work") }, "test: rec work: varint overflows 64 bits"},
		{"string past the end", []byte{5, 'a', 'b'}, func(c *Cursor) { _ = c.String("key") }, "test: rec key: length 5 exceeds remaining 2 bytes"},
		{"short fixed", []byte{1, 2, 3}, func(c *Cursor) { c.Uint64("digest") }, "test: rec digest: length 8 exceeds remaining 3 bytes"},
		{"no byte", nil, func(c *Cursor) { c.Byte("flags") }, "test: rec flags: length 1 exceeds remaining 0 bytes"},
		{"implausible count", binary.AppendUvarint(nil, maxItems+1), func(c *Cursor) { c.Count("rows") }, "test: rec rows: implausible count 16777217"},
		{"rows cut short", AppendRows(nil, []RowChange{{"k", 1}, {"l", 2}})[:4], func(c *Cursor) { c.Rows("row") }, "test: rec row: unexpected EOF"},
		{"first error wins", []byte{0x80}, func(c *Cursor) { c.Uvarint("first"); c.Uint64("second") }, "test: rec first: unexpected EOF"},
		{"trailing bytes", []byte{1, 2}, func(c *Cursor) { c.Byte("flags") }, "test: rec record has 1 trailing bytes"},
	} {
		c := NewCursor("test: rec", tc.payload)
		tc.read(c)
		if err := c.Done(); err == nil || err.Error() != tc.want {
			t.Errorf("%s: %v, want %s", tc.name, err, tc.want)
		}
	}
	c := NewCursor("test: rec", AppendRows(AppendString(nil, "view"), []RowChange{{"k", -1}}))
	if view, rows := c.String("view"), c.Rows("row"); view != "view" || len(rows) != 1 || rows[0] != (RowChange{"k", -1}) || c.Done() != nil {
		t.Fatalf("round trip: %q %v %v", view, rows, c.Done())
	}
}

// TestScanReaderGrowsForALargeFrame: a frame larger than the reader's
// buffer grows it and is handed on whole, between frames that fit, at its
// offset in the stream; cut short, it is the torn tail.
func TestScanReaderGrowsForALargeFrame(t *testing.T) {
	large := bytes.Repeat([]byte("0123456789"), 1000)
	log := append(append(encodeFrame(7, []byte("one")), encodeFrame(8, large)...), encodeFrame(9, []byte("three"))...)
	for _, cut := range []int{0, 30} {
		var payloads [][]byte
		var ends []int
		reused := 0
		size, torn, err := scanReader(bytes.NewReader(log[:len(log)-cut]), 64, func(_ byte, p []byte, end int) error {
			payloads, ends = append(payloads, bytes.Clone(p)), append(ends, end)
			return nil
		}, func() { reused++ })
		one := len(encodeFrame(7, []byte("one")))
		whole := []int{one, len(log) - len(encodeFrame(9, []byte("three"))), len(log)}
		if cut > 0 {
			whole = whole[:1]
		}
		if err != nil || torn != (cut > 0) || size != int64(whole[len(whole)-1]) || !slices.Equal(ends, whole) {
			t.Fatalf("cut %d: read to %d (torn %v), frames ending at %v, want %v: %v", cut, size, torn, ends, whole, err)
		}
		if cut == 0 && (!bytes.Equal(payloads[1], large) || string(payloads[2]) != "three") || reused == 0 {
			t.Fatalf("cut %d: the large frame came through as %d bytes, the buffer refilled %d times", cut, len(payloads[1]), reused)
		}
	}
}

package journal

// The record log. A log is a sequence of self-delimiting frames
//
//	[type byte][payload length uvarint][payload][CRC64 big-endian]
//
// and this file is everything that knows it but the one writer (journal.go):
// the one frame encoder and decoder, the one loop that walks consecutive
// frames, the one way a log file is opened for append (torn tail cut first)
// and the codec of the payloads' fields. The journal (journal.go) brings the
// record vocabulary, and it and the replication log (internal/replicate),
// which ships the same records, read and cut through here, so a durability
// fix lands in both. It is also the one binary format of the state the
// warehouse writes and reads back: a snapshot (internal/snapshot) is a run of
// these frames, and an accumulator state
// (internal/delta) is fields a Cursor reads. So this package imports none of
// the packages that hold that state.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"os"
)

// Frame and payload guards: a corrupt or adversarial length never causes a
// large allocation.
const (
	maxFrame = 1 << 30
	maxItems = 1 << 24
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// ErrCorruptFrame reports a frame that is definitely damaged — a CRC
// mismatch, an implausible length, or a record type its log does not have —
// as opposed to one that is merely incomplete. A stream's reader fetches
// again on corruption and waits for more bytes on incompleteness: a bit-flip
// must not be mistaken for "the rest hasn't arrived yet". A file's reader
// (ScanFile) takes both for the tail a crash tore.
var ErrCorruptFrame = errors.New("journal: corrupt frame")

// ChunkCRC fingerprints a shipped byte range with the journal's CRC64
// polynomial, so a transfer can be verified end-to-end independently of the
// per-record CRCs (a truncated response, for instance, still ends on a valid
// record boundary).
func ChunkCRC(p []byte) uint64 { return crc64.Checksum(p, crcTable) }

// EncodeFrame wraps a payload in a frame without appending it anywhere. The
// CRC covers the type byte, the length bytes and the payload.
func EncodeFrame(typ byte, payload []byte) []byte {
	buf, start := appendFrame(make([]byte, 0, frameGap+len(payload)+8), typ,
		func(p []byte) []byte { return append(p, payload...) })
	return buf[start:]
}

// frameGap is the room a frame's head takes at most: the type byte and the
// payload's length as a uvarint.
const frameGap = 1 + binary.MaxVarintLen64

// appendFrame appends to dst the frame of the payload enc appends and
// returns the buffer and where in it the frame starts. The payload is
// encoded once, where it stays: behind a gap of frameGap bytes, into whose
// end the head is written once the payload's length is known; the CRC over
// head and payload follows it.
func appendFrame(dst []byte, typ byte, enc func([]byte) []byte) ([]byte, int) {
	var head [frameGap]byte
	body := len(dst) + frameGap
	dst = enc(append(dst, head[:]...))
	head[0] = typ
	n := 1 + binary.PutUvarint(head[1:], uint64(len(dst)-body))
	start := body - n
	copy(dst[start:body], head[:n])
	return binary.BigEndian.AppendUint64(dst, crc64.Checksum(dst[start:], crcTable)), start
}

// DecodeFrame parses the first frame of buf: its type byte, its payload
// (aliasing buf — copy to retain) and its encoded length, once the length is
// plausible and the CRC matches. n == 0 with a nil error means buf holds only
// a prefix of a frame: the caller should wait for more bytes. A frame that
// can never become valid returns an error wrapping ErrCorruptFrame. Any type
// byte is returned: which types a log has is its vocabulary's business.
func DecodeFrame(buf []byte) (typ byte, payload []byte, n int, err error) {
	if len(buf) == 0 {
		return 0, nil, 0, nil
	}
	typ = buf[0]
	plen, ulen := binary.Uvarint(buf[1:])
	if ulen == 0 {
		return 0, nil, 0, nil // length varint incomplete
	}
	if ulen < 0 || plen > maxFrame {
		return 0, nil, 0, fmt.Errorf("%w: implausible payload length", ErrCorruptFrame)
	}
	head := 1 + ulen
	total := head + int(plen) + 8
	if len(buf) < total {
		return 0, nil, 0, nil
	}
	sum := crc64.Checksum(buf[:head+int(plen)], crcTable)
	if binary.BigEndian.Uint64(buf[head+int(plen):total]) != sum {
		return 0, nil, 0, fmt.Errorf("%w: CRC mismatch on type-%d record", ErrCorruptFrame, typ)
	}
	return typ, buf[head : head+int(plen)], total, nil
}

// Scan walks the consecutive frames of buf, handing fn each whole one with
// end, the offset in buf just past it. It returns how many bytes of buf were
// whole frames that fn took, and why it stopped short of len(buf): nil when
// the rest is an incomplete frame, an error wrapping ErrCorruptFrame when it
// is a damaged one, or fn's error — by which a vocabulary refuses a record.
func Scan(buf []byte, fn func(typ byte, payload []byte, end int) error) (n int, err error) {
	for n < len(buf) {
		typ, payload, size, err := DecodeFrame(buf[n:])
		if err != nil || size == 0 {
			return n, err
		}
		if err := fn(typ, payload, n+size); err != nil {
			return n, err
		}
		n += size
	}
	return n, nil
}

// ScanFile is Scan under the policy of a log file's reader: an incomplete
// frame, a damaged one, and one that fn refuses with ErrCorruptFrame (a type
// the vocabulary does not have) are all the tail that a crash mid-append
// leaves, and so is everything behind it. The tail is reported as torn, not
// as an error; size is where it begins. Any other error of fn — a CRC-valid
// record that does not decode, a record out of place — is a format error.
func ScanFile(buf []byte, fn func(typ byte, payload []byte, end int) error) (size int64, torn bool, err error) {
	n, err := Scan(buf, fn)
	if errors.Is(err, ErrCorruptFrame) {
		err = nil
	}
	return int64(n), n < len(buf), err
}

// OpenAppend opens the log file at path, creating it when absent, for
// appending after its last whole frame. The file is read first and fn sees
// its frames as under ScanFile; a torn tail is then cut off, or the torn
// frame would hide every record appended behind it from the next reader.
func OpenAppend(path string, fn func(typ byte, payload []byte, end int) error) (*os.File, error) {
	buf, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	size, torn, err := ScanFile(buf, fn)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if torn {
		if err := f.Truncate(size); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: cutting the torn tail of %s: %w", path, err)
		}
	}
	return f, nil
}

// AppendString appends s to a payload as a uvarint length and its bytes. The
// other fields are written with encoding/binary's AppendUvarint, AppendVarint
// and BigEndian.AppendUint64.
func AppendString(p []byte, s string) []byte {
	return append(binary.AppendUvarint(p, uint64(len(s))), s...)
}

// AppendRows appends a list of row changes to a payload: a count, then each
// row's key and signed count.
func AppendRows(p []byte, rows []RowChange) []byte {
	p = binary.AppendUvarint(p, uint64(len(rows)))
	for _, r := range rows {
		p = binary.AppendVarint(AppendString(p, r.Key), r.Count)
	}
	return p
}

// Cursor reads a record's payload field by field, in the order the fields
// were appended. The first field that cannot be read — the payload ends
// inside it, a varint overflows, a length or a count is out of bounds — is
// the cursor's error, which names the record and the field; every read after
// it returns zero. Done reports that error, or the bytes left over when every
// field was read, so a decoder checks once, at the end.
type Cursor struct {
	record string
	buf    []byte
	err    error
}

// NewCursor starts reading payload; record ("journal: begin") prefixes the
// cursor's errors.
func NewCursor(record string, payload []byte) *Cursor {
	return &Cursor{record: record, buf: payload}
}

// Fail makes err the cursor's error for field, unless a read failed before.
func (c *Cursor) Fail(field string, err error) {
	if c.err == nil {
		c.err = fmt.Errorf("%s %s: %w", c.record, field, err)
		c.buf = nil
	}
}

// Err returns the cursor's error so far, for a loop over a list's items to
// stop at.
func (c *Cursor) Err() error { return c.err }

// Done ends the read: the cursor's error, or an error when bytes remain.
func (c *Cursor) Done() error {
	if c.err == nil && len(c.buf) != 0 {
		return fmt.Errorf("%s record has %d trailing bytes", c.record, len(c.buf))
	}
	return c.err
}

// varint advances past a varint of n bytes as encoding/binary reports it:
// n == 0 when the payload ends inside it, n < 0 when it overflows 64 bits.
func (c *Cursor) varint(field string, n int) bool {
	switch {
	case n > 0:
		c.buf = c.buf[n:]
		return true
	case n == 0:
		c.Fail(field, io.ErrUnexpectedEOF)
	default:
		c.Fail(field, errors.New("varint overflows 64 bits"))
	}
	return false
}

func (c *Cursor) Uvarint(field string) uint64 {
	v, n := binary.Uvarint(c.buf)
	if !c.varint(field, n) {
		return 0
	}
	return v
}

func (c *Cursor) Varint(field string) int64 {
	v, n := binary.Varint(c.buf)
	if !c.varint(field, n) {
		return 0
	}
	return v
}

// take returns the next n bytes, which must not exceed what remains.
func (c *Cursor) take(field string, n uint64) []byte {
	if n > uint64(len(c.buf)) {
		c.Fail(field, fmt.Errorf("length %d exceeds remaining %d bytes", n, len(c.buf)))
		return nil
	}
	p := c.buf[:n]
	c.buf = c.buf[n:]
	return p
}

func (c *Cursor) Byte(field string) byte {
	if p := c.take(field, 1); p != nil {
		return p[0]
	}
	return 0
}

// Uint64 reads eight big-endian bytes.
func (c *Cursor) Uint64(field string) uint64 {
	if p := c.take(field, 8); p != nil {
		return binary.BigEndian.Uint64(p)
	}
	return 0
}

func (c *Cursor) String(field string) string {
	return string(c.take(field, c.Uvarint(field)))
}

// Count reads the length of a list, bounded so that a corrupt one allocates
// and loops little.
func (c *Cursor) Count(field string) int {
	n := c.Uvarint(field)
	if n > maxItems {
		c.Fail(field, fmt.Errorf("implausible count %d", n))
		return 0
	}
	return int(n)
}

// Rows reads what AppendRows wrote.
func (c *Cursor) Rows(field string) []RowChange {
	n := c.Count(field)
	rows := make([]RowChange, 0, min(n, 4096))
	for i := 0; i < n && c.err == nil; i++ {
		rows = append(rows, RowChange{Key: c.String(field), Count: c.Varint(field)})
	}
	return rows
}

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
	"slices"
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
// (ScanReader) takes both for the tail a crash tore.
var ErrCorruptFrame = errors.New("journal: corrupt frame")

// ChunkCRC fingerprints a shipped byte range with the journal's CRC64
// polynomial, so a transfer can be verified end-to-end independently of the
// per-record CRCs (a truncated response, for instance, still ends on a valid
// record boundary).
func ChunkCRC(p []byte) uint64 { return crc64.Checksum(p, crcTable) }

// frameGap is the room a frame's head takes at most: the type byte and the
// payload's length as a uvarint.
const frameGap = 1 + binary.MaxVarintLen64

// appendFrame appends to dst the frame of the payload enc appends and
// returns the buffer and where in it the frame starts. The payload is
// encoded once, where it stays (BeginFrame, EndFrame).
func appendFrame(dst []byte, typ byte, enc func([]byte) []byte) ([]byte, int) {
	dst, body := BeginFrame(dst)
	return EndFrame(enc(dst), typ, body)
}

// BeginFrame opens a frame at the end of dst: it appends a gap of
// frameGap bytes, into whose end EndFrame writes the frame's head once the
// payload's length is known, and returns the buffer and the payload's
// offset. The payload is then appended where it stays, so a writer that
// frames record after record into one buffer it reuses allocates nothing
// once the buffer has grown.
func BeginFrame(dst []byte) ([]byte, int) {
	var gap [frameGap]byte
	dst = append(dst, gap[:]...)
	return dst, len(dst)
}

// EndFrame closes the frame whose payload is dst[body:]: it writes the
// head just before body, which is at or after the offset BeginFrame
// returned — a payload may begin later, in room kept for a field that is
// known last — and appends the CRC over head and payload. It returns the
// buffer and where in it the frame starts.
func EndFrame(dst []byte, typ byte, body int) ([]byte, int) {
	var head [frameGap]byte
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

// maxScanBuffer is the most a log file's reader buffers: a longer file is
// read through a buffer of this size, refilled as its frames are handed on,
// and only a single frame larger than it grows it.
const maxScanBuffer = 1 << 20

// ScanReader walks the frames of in, a log file's bytes from its start,
// under the policy of a log file's reader: an incomplete frame, a damaged
// one, and one that fn refuses with ErrCorruptFrame (a type the vocabulary
// does not have) are all the tail that a crash mid-append leaves, and so is
// everything behind it. The tail is reported as torn, not as an error; size
// is where it begins. Any other error of fn — a CRC-valid record that does
// not decode, a record out of place — is a format error.
//
// in is read through one buffer of min(its size + 1, 1 MiB) bytes (the size
// as ReadAll finds it; 1 MiB when in reports none), so a reader holds no
// more of a long log than that, and an empty one allocates one byte. fn's
// end is the offset in in just past the frame, and its payload aliases the
// buffer: reuse, when not nil, is called before the buffer is refilled over
// bytes fn was handed, so that a caller that kept payloads copies them then.
func ScanReader(in io.Reader, fn func(typ byte, payload []byte, end int) error, reuse func()) (size int64, torn bool, err error) {
	bufSize := maxScanBuffer
	if n, ok := readerSize(in); ok {
		bufSize = min(n+1, maxScanBuffer)
	}
	return scanReader(in, bufSize, fn, reuse)
}

// scanReader is ScanReader through a buffer of bufSize bytes. A frame that
// does not fit grows the buffer by doubling as its bytes arrive, so a
// damaged length costs at most twice the bytes in holds.
func scanReader(in io.Reader, bufSize int, fn func(typ byte, payload []byte, end int) error, reuse func()) (size int64, torn bool, err error) {
	buf := make([]byte, 0, bufSize)
	off, done, eof := 0, 0, false // buf[0] is byte off of in; fn has had buf[:done]
	for {
		n, err := Scan(buf[done:], func(typ byte, payload []byte, end int) error {
			return fn(typ, payload, off+done+end)
		})
		done += n
		switch {
		case errors.Is(err, ErrCorruptFrame):
			return int64(off + done), true, nil
		case err != nil:
			return int64(off + done), false, err
		case eof:
			return int64(off + done), done < len(buf), nil
		}
		if done > 0 { // the bytes of whole frames are refilled over
			if reuse != nil {
				reuse()
			}
			buf = buf[:copy(buf, buf[done:])]
			off, done = off+done, 0
		}
		if len(buf) == cap(buf) { // a frame larger than the buffer
			buf = slices.Grow(buf, cap(buf))
		}
		m, rerr := in.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+m]
		if rerr == io.EOF {
			eof = true
		} else if rerr != nil {
			return int64(off + done), false, rerr
		}
	}
}

// OpenAppend opens the log file at path, creating it when absent, for
// appending after its last whole frame. The file is scanned first, through
// one buffer (ScanReader), and fn and reuse see its frames as they do
// there; a torn tail is then cut off, or the torn frame would hide every
// record appended behind it from the next reader.
// A file that held anything is then flushed, with the cut: a process that
// died may have left records no flush reached, such as the begin record of a
// window that a recovery is about to complete and report, and a writer
// appending behind them counts its bytes from a durable start.
func OpenAppend(path string, fn func(typ byte, payload []byte, end int) error, reuse func()) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	size, torn, err := ScanReader(f, fn, reuse)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	if torn {
		if err := f.Truncate(size); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: cutting the torn tail of %s: %w", path, err)
		}
	}
	if size > 0 || torn {
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: flushing %s: %w", path, err)
		}
	}
	return f, nil
}

// readerSize is what in reports it holds — the Len of a bytes.Reader or
// bytes.Buffer, the size of a regular file — and whether it reports it.
func readerSize(in io.Reader) (int, bool) {
	switch r := in.(type) {
	case interface{ Len() int }:
		return r.Len(), true
	case interface{ Stat() (os.FileInfo, error) }:
		if fi, err := r.Stat(); err == nil && fi.Mode().IsRegular() {
			return int(fi.Size()), true
		}
	}
	return 0, false
}

// ReadAll reads in to its end, as io.ReadAll does, but into one buffer
// sized from what in reports it holds (readerSize), where io.ReadAll grows
// its buffer by doubling and so allocates about twice what it reads. A
// reader that reports nothing is read by io.ReadAll. A snapshot is read
// whole through it (internal/snapshot); a log is scanned (ScanReader).
func ReadAll(in io.Reader) ([]byte, error) {
	size, ok := readerSize(in)
	if !ok {
		return io.ReadAll(in)
	}
	// One byte more than reported, so that the read that finds the end
	// has room and grows nothing.
	buf := make([]byte, 0, size+1)
	for {
		if len(buf) == cap(buf) { // in held more than it reported
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := in.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
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

// Bytes is String without the copy: the bytes alias the payload.
func (c *Cursor) Bytes(field string) []byte {
	return c.take(field, c.Uvarint(field))
}

func (c *Cursor) String(field string) string {
	return string(c.Bytes(field))
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

// skipRows reads what AppendRows wrote, as Rows does, and keeps none of it.
func (c *Cursor) skipRows(field string) {
	for i, n := 0, c.Count(field); i < n && c.err == nil; i++ {
		c.Bytes(field)
		c.Varint(field)
	}
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

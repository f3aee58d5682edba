// Package snapshot persists and restores the materialized state of a
// warehouse in a compact, versioned binary format.
//
// A snapshot stores data only — view names, row bags and aggregate group
// states — not view definitions: the catalog is code, so restoring requires
// a warehouse whose catalog (names, schemas, aggregate specs) matches the
// one the snapshot was taken from. This is the classic "fast warm restart"
// split: re-declare the views, load the snapshot, and the warehouse is
// ready for the next update window without replaying history or
// recomputing summary tables.
//
// Snapshots are only taken of quiescent warehouses (no staged or
// uninstalled changes); Write refuses otherwise, because pending delta
// state is transient to one update window by design.
package snapshot

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc64"
	"io"

	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/relation"
)

// magic identifies the format; the trailing digits version it.
const magic = "WHSNAP01"

const (
	kindTable byte = 0
	kindAgg   byte = 1
)

// Write serializes the warehouse's materialized state to out.
func Write(w *core.Warehouse, out io.Writer) error {
	return WriteContext(context.Background(), w, out)
}

// cancelCheckRows is how many rows WriteContext streams between context
// checks — frequent enough that cancellation stops a large snapshot within
// microseconds, rare enough to stay off the encode hot path.
const cancelCheckRows = 1 << 12

// WriteContext is Write observing ctx: the write stops — between views and
// every few thousand rows within one — as soon as ctx is cancelled, and
// returns ctx's error. A cancelled write leaves out holding a truncated
// stream with no CRC trailer, which Read rejects outright; callers writing
// checkpoint files must still write to a temp file and rename only on
// success, so a cancelled checkpoint can never be adopted.
func WriteContext(ctx context.Context, w *core.Warehouse, out io.Writer) error {
	if pending := w.PendingViews(); len(pending) > 0 {
		return fmt.Errorf("snapshot: warehouse has pending changes on %v; finish the update window first", pending)
	}
	bw := bufio.NewWriter(out)
	crc := crc64.New(crcTable)
	dst := io.MultiWriter(bw, crc)

	if _, err := io.WriteString(dst, magic); err != nil {
		return err
	}
	names := w.ViewNames()
	if err := writeUvarint(dst, uint64(len(names))); err != nil {
		return err
	}
	for _, name := range names {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("snapshot: write cancelled before %s: %w", name, err)
		}
		v := w.MustView(name)
		if err := writeString(dst, name); err != nil {
			return err
		}
		if agg := v.AggStore(); agg != nil {
			if err := writeByte(dst, kindAgg); err != nil {
				return err
			}
			if err := writeUvarint(dst, uint64(agg.Cardinality())); err != nil {
				return err
			}
			var werr error
			var row int
			agg.ScanGroups(func(groupKey string, support int64, accums []*delta.Accum) bool {
				if row++; row%cancelCheckRows == 0 {
					if werr = ctx.Err(); werr != nil {
						werr = fmt.Errorf("snapshot: write cancelled in %s: %w", name, werr)
						return false
					}
				}
				if werr = writeString(dst, groupKey); werr != nil {
					return false
				}
				if werr = writeVarint(dst, support); werr != nil {
					return false
				}
				for _, a := range accums {
					if werr = writeBytes(dst, a.AppendBinary(nil)); werr != nil {
						return false
					}
				}
				return true
			})
			if werr != nil {
				return werr
			}
			continue
		}
		tbl := v.Table()
		if err := writeByte(dst, kindTable); err != nil {
			return err
		}
		if err := writeUvarint(dst, uint64(tbl.DistinctCount())); err != nil {
			return err
		}
		var werr error
		var row int
		tbl.ScanEncoded(func(key string, count int64) bool {
			if row++; row%cancelCheckRows == 0 {
				if werr = ctx.Err(); werr != nil {
					werr = fmt.Errorf("snapshot: write cancelled in %s: %w", name, werr)
					return false
				}
			}
			if werr = writeString(dst, key); werr != nil {
				return false
			}
			werr = writeVarint(dst, count)
			return werr == nil
		})
		if werr != nil {
			return werr
		}
	}
	// Trailer: CRC of everything before it.
	sum := crc.Sum64()
	var tail [8]byte
	binary.BigEndian.PutUint64(tail[:], sum)
	if _, err := bw.Write(tail[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// stagedPrealloc caps slice preallocation from length prefixes: a corrupt
// or hostile prefix can claim billions of rows, so capacity beyond this is
// earned by actually decoding rows, not claimed up front.
const stagedPrealloc = 1 << 16

type stagedRow struct {
	tup   relation.Tuple
	count int64
}

type stagedGroup struct {
	key     string
	support int64
	accums  []*delta.Accum
}

type stagedView struct {
	name   string
	isAgg  bool
	rows   []stagedRow
	groups []stagedGroup
}

// Read restores a snapshot into w, whose catalog must match the snapshot's
// (same view names in the same order, schema-compatible rows). The entire
// stream is decoded and verified — length prefixes, row encodings,
// accumulator states, the CRC trailer, and that nothing trails it — into
// staging buffers first; the warehouse is mutated only after every check
// has passed, so on error w is left exactly as it was.
func Read(w *core.Warehouse, in io.Reader) error {
	if pending := w.PendingViews(); len(pending) > 0 {
		return fmt.Errorf("snapshot: refusing to restore over pending changes on %v", pending)
	}
	// Hash exactly the bytes consumed (a tee around bufio would hash its
	// read-ahead), so the trailer check is positionally correct.
	br := &crcReader{r: bufio.NewReader(in), h: crc64.New(crcTable)}

	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return fmt.Errorf("snapshot: reading header: %w", truncErr(err))
	}
	if string(head) != magic {
		return fmt.Errorf("snapshot: bad magic %q (want %q)", head, magic)
	}
	nViews, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("snapshot: reading view count: %w", truncErr(err))
	}
	names := w.ViewNames()
	if uint64(len(names)) != nViews {
		return fmt.Errorf("snapshot: holds %d views but catalog defines %d", nViews, len(names))
	}
	staged := make([]stagedView, 0, len(names))
	for _, want := range names {
		name, err := readString(br)
		if err != nil {
			return fmt.Errorf("snapshot: reading view name: %w", truncErr(err))
		}
		if name != want {
			return fmt.Errorf("snapshot: view %q where catalog expects %q (definition order must match)", name, want)
		}
		kind, err := br.ReadByte()
		if err != nil {
			return fmt.Errorf("snapshot: reading view kind: %w", truncErr(err))
		}
		v := w.MustView(name)
		sv := stagedView{name: name}
		switch kind {
		case kindTable:
			tbl := v.Table()
			if tbl == nil {
				return fmt.Errorf("snapshot: view %q is aggregate in the catalog but plain in the snapshot", name)
			}
			n, err := binary.ReadUvarint(br)
			if err != nil {
				return fmt.Errorf("snapshot: %s: reading row count: %w", name, truncErr(err))
			}
			width := len(tbl.Schema())
			sv.rows = make([]stagedRow, 0, min(n, stagedPrealloc))
			for i := uint64(0); i < n; i++ {
				enc, err := readString(br)
				if err != nil {
					return fmt.Errorf("snapshot: %s: reading row: %w", name, truncErr(err))
				}
				tup, err := relation.DecodeTuple(enc)
				if err != nil {
					return fmt.Errorf("snapshot: %s: corrupt row: %w", name, err)
				}
				if len(tup) != width {
					return fmt.Errorf("snapshot: %s: row arity %d does not match schema width %d", name, len(tup), width)
				}
				count, err := binary.ReadVarint(br)
				if err != nil {
					return fmt.Errorf("snapshot: %s: reading count: %w", name, truncErr(err))
				}
				if count <= 0 {
					return fmt.Errorf("snapshot: %s: non-positive row count %d", name, count)
				}
				sv.rows = append(sv.rows, stagedRow{tup, count})
			}
		case kindAgg:
			agg := v.AggStore()
			if agg == nil {
				return fmt.Errorf("snapshot: view %q is plain in the catalog but aggregate in the snapshot", name)
			}
			n, err := binary.ReadUvarint(br)
			if err != nil {
				return fmt.Errorf("snapshot: %s: reading group count: %w", name, truncErr(err))
			}
			specs := agg.Specs()
			sv.isAgg = true
			sv.groups = make([]stagedGroup, 0, min(n, stagedPrealloc))
			for i := uint64(0); i < n; i++ {
				groupKey, err := readString(br)
				if err != nil {
					return fmt.Errorf("snapshot: %s: reading group key: %w", name, truncErr(err))
				}
				if _, err := relation.DecodeTuple(groupKey); err != nil {
					return fmt.Errorf("snapshot: %s: corrupt group key: %w", name, err)
				}
				support, err := binary.ReadVarint(br)
				if err != nil {
					return fmt.Errorf("snapshot: %s: reading support: %w", name, truncErr(err))
				}
				if support <= 0 {
					return fmt.Errorf("snapshot: %s: non-positive group support %d", name, support)
				}
				accums := make([]*delta.Accum, len(specs))
				for j, spec := range specs {
					raw, err := readString(br)
					if err != nil {
						return fmt.Errorf("snapshot: %s: reading accumulator: %w", name, truncErr(err))
					}
					a, err := delta.DecodeAccum(&stringByteReader{s: raw}, spec)
					if err != nil {
						return fmt.Errorf("snapshot: %s: %w", name, err)
					}
					if !a.Valid() {
						return fmt.Errorf("snapshot: %s: accumulator %d of group %q is invalid", name, j, groupKey)
					}
					accums[j] = a
				}
				sv.groups = append(sv.groups, stagedGroup{groupKey, support, accums})
			}
		default:
			return fmt.Errorf("snapshot: unknown view kind %d", kind)
		}
		staged = append(staged, sv)
	}
	// Verify the CRC trailer over everything consumed so far.
	want := br.h.Sum64()
	var tail [8]byte
	if _, err := io.ReadFull(br.r, tail[:]); err != nil {
		return fmt.Errorf("snapshot: reading checksum: %w", truncErr(err))
	}
	if got := binary.BigEndian.Uint64(tail[:]); got != want {
		return fmt.Errorf("snapshot: checksum mismatch (file %x, computed %x)", got, want)
	}
	// The checksum is the last thing in a snapshot; trailing bytes mean the
	// file is not what it claims to be (concatenated, padded, or corrupt).
	switch _, err := br.r.ReadByte(); err {
	case io.EOF:
	case nil:
		return fmt.Errorf("snapshot: trailing garbage after checksum")
	default:
		return fmt.Errorf("snapshot: reading past checksum: %w", err)
	}

	// Everything verified — swap the staged state in.
	for _, sv := range staged {
		v := w.MustView(sv.name)
		if sv.isAgg {
			agg := v.AggStore()
			agg.Clear()
			agg.Grow(len(sv.groups))
			for _, g := range sv.groups {
				if err := agg.RestoreGroup(g.key, g.support, g.accums); err != nil {
					// Unreachable: every RestoreGroup precondition was
					// checked during staging.
					return fmt.Errorf("snapshot: %s: %w", sv.name, err)
				}
			}
		} else {
			tbl := v.Table()
			tbl.Clear()
			tbl.Grow(len(sv.rows))
			for _, r := range sv.rows {
				tbl.Insert(r.tup, r.count)
			}
		}
	}
	return nil
}

// truncErr normalizes a bare io.EOF from a mid-stream read into
// io.ErrUnexpectedEOF so truncation errors read as truncation, not as a
// clean end of input.
func truncErr(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

var crcTable = crc64.MakeTable(crc64.ECMA)

// crcReader hashes exactly the bytes handed to the caller.
type crcReader struct {
	r *bufio.Reader
	h hash.Hash64
}

func (c *crcReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.h.Write([]byte{b})
	}
	return b, err
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if n > 0 {
		c.h.Write(p[:n])
	}
	return n, err
}

// stringByteReader is an io.ByteReader over a string.
type stringByteReader struct {
	s string
	i int
}

func (r *stringByteReader) ReadByte() (byte, error) {
	if r.i >= len(r.s) {
		return 0, io.EOF
	}
	b := r.s[r.i]
	r.i++
	return b, nil
}

func writeByte(w io.Writer, b byte) error {
	_, err := w.Write([]byte{b})
	return err
}

func writeUvarint(w io.Writer, v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, err := w.Write(buf[:n])
	return err
}

func writeVarint(w io.Writer, v int64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	_, err := w.Write(buf[:n])
	return err
}

func writeString(w io.Writer, s string) error {
	if err := writeUvarint(w, uint64(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func writeBytes(w io.Writer, b []byte) error {
	if err := writeUvarint(w, uint64(len(b))); err != nil {
		return err
	}
	_, err := w.Write(b)
	return err
}

// byteAndBlockReader is what the decoder needs: varints plus bulk reads.
type byteAndBlockReader interface {
	io.ByteReader
	io.Reader
}

func readString(r byteAndBlockReader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > 1<<31 {
		return "", fmt.Errorf("snapshot: implausible string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

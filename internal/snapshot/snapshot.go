// Package snapshot persists and restores the materialized state of a
// warehouse as a run of frames of the record log (package journal).
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
//
// The format: a header frame holding the number of views; for each view, in
// catalog order, a view frame (name, kind, and how many rows or groups it
// holds) and its rows or groups in chunk frames of at most chunkRows each;
// and an end frame. A chunk is a count and its entries: a row is its encoded
// tuple and count, a group its encoded key, its support and one accumulator
// state per aggregate (delta.Accum.AppendBinary). Read checks each frame's
// CRC before it decodes the payload (journal.Scan) and reads every field
// through a journal.Cursor, so no length is trusted beyond the bytes present.
package snapshot

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/journal"
	"repro/internal/storage"
)

// The type bytes of a snapshot's frames, apart from the journal's.
const (
	typeHeader byte = 16
	typeView   byte = 17
	typeChunk  byte = 18
	typeEnd    byte = 19
)

const (
	kindTable byte = 0
	kindAgg   byte = 1
)

// chunkRows is the most rows or groups a chunk frame holds, and so how many
// Write streams between context checks: frequent enough that cancellation
// stops a large snapshot within microseconds, rare enough to stay off the
// encode hot path.
const chunkRows = 1 << 12

// oldMagic begins the snapshots written before snapshots were frames.
const oldMagic = "WHSNAP01"

// Write serializes the warehouse's materialized state to out.
func Write(w *core.Warehouse, out io.Writer) error {
	return WriteContext(context.Background(), w, out)
}

// WriteContext is Write observing ctx: the write stops — between views and
// between chunks within one — as soon as ctx is cancelled, and returns ctx's
// error. A cancelled write leaves out holding a snapshot without its end
// frame, which Read rejects; a caller writing a file that is to replace
// another uses WriteFile, so a cancelled write never replaces anything.
func WriteContext(ctx context.Context, w *core.Warehouse, out io.Writer) error {
	if pending := w.PendingViews(); len(pending) > 0 {
		return fmt.Errorf("snapshot: warehouse has pending changes on %v; finish the update window first", pending)
	}
	sw := &writer{ctx: ctx, out: bufio.NewWriter(out)}
	names := w.ViewNames()
	sw.end(typeHeader, binary.AppendUvarint(sw.begin(), uint64(len(names))))
	for _, name := range names {
		v := w.MustView(name)
		if v.IsAggregate() {
			sw.view(name, kindAgg, v.Cardinality())
			v.Table().ScanGroups(func(key string, support int64, accums []delta.Accum) bool {
				sw.buf = binary.AppendVarint(journal.AppendString(sw.open(), key), support)
				for i := range accums {
					sw.buf = accums[i].AppendBinary(sw.buf)
				}
				return sw.entry()
			})
		} else {
			sw.view(name, kindTable, v.Table().DistinctCount())
			v.Table().ScanEncoded(func(key string, count int64) bool {
				sw.buf = binary.AppendVarint(journal.AppendString(sw.open(), key), count)
				return sw.entry()
			})
		}
		sw.chunk()
	}
	sw.end(typeEnd, sw.begin())
	if sw.err != nil {
		return sw.err
	}
	return sw.out.Flush()
}

// writer emits a snapshot's frames. Its error — a failed write, or the
// context's once it is done — is the first one, and stops it. Every frame
// is encoded in place into buf, which is reused: a write allocates a few
// times its largest frame, whatever the snapshot's size.
type writer struct {
	ctx  context.Context
	out  *bufio.Writer
	name string // the view being written
	buf  []byte // the frame being written
	body int    // where its payload begins in buf
	n    int    // the entries of the open chunk, if one is open
	err  error
}

// countRoom is the room a chunk keeps for its count, which is written last:
// a uvarint of at most chunkRows (below 1<<14) takes two bytes.
const countRoom = 2

// begin opens a frame in buf and returns buf, for its payload to be
// appended to.
func (sw *writer) begin() []byte {
	sw.buf, sw.body = journal.BeginFrame(sw.buf[:0])
	return sw.buf
}

// end closes the frame begun, whose payload buf now ends, and writes it.
func (sw *writer) end(typ byte, buf []byte) {
	buf, start := journal.EndFrame(buf, typ, sw.body)
	if sw.buf = buf; sw.err == nil {
		_, sw.err = sw.out.Write(buf[start:])
	}
}

// check makes the context's error the writer's, once the context is done.
func (sw *writer) check(where string) {
	if err := sw.ctx.Err(); err != nil && sw.err == nil {
		sw.err = fmt.Errorf("snapshot: write cancelled %s %s: %w", where, sw.name, err)
	}
}

// view writes a view's frame, holding count rows or groups.
func (sw *writer) view(name string, kind byte, count int64) {
	sw.name = name
	sw.check("before")
	sw.end(typeView, binary.AppendUvarint(append(journal.AppendString(sw.begin(), name), kind), uint64(count)))
}

// open returns buf for the next entry to be appended to, opening a chunk
// frame first if none is open.
func (sw *writer) open() []byte {
	if sw.n == 0 {
		sw.buf = append(sw.begin(), make([]byte, countRoom)...)
	}
	return sw.buf
}

// entry counts the entry just appended to the chunk, and writes the chunk
// once it is full. It reports whether the writer can go on.
func (sw *writer) entry() bool {
	if sw.n++; sw.n == chunkRows {
		sw.chunk()
	}
	return sw.err == nil
}

// chunk writes the open chunk, if there is one: its count goes at the end
// of the room kept for it, where the payload then begins.
func (sw *writer) chunk() {
	if sw.n > 0 {
		sw.check("in")
		var count [countRoom]byte
		k := binary.PutUvarint(count[:], uint64(sw.n))
		sw.body += countRoom - k
		copy(sw.buf[sw.body:], count[:k])
		sw.end(typeChunk, sw.buf)
	}
	sw.n = 0
}

// WriteFile writes the snapshot to a temporary file beside path and renames
// it over path once it is whole: a write that is refused, fails or is
// cancelled leaves whatever path held.
func WriteFile(ctx context.Context, w *core.Warehouse, path string) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+"-*")
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	defer os.Remove(tmp.Name())
	err = WriteContext(ctx, w, tmp)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// stagedView is a view's state as Read builds it, beside the live one: a
// fresh table and the build that fills it with rows, or, for a summary view,
// with the groups it reads, each placed as its output row.
type stagedView struct {
	view   *core.View
	table  *storage.Table
	rows   *storage.Builder
	groups *storage.AggBuilder
	specs  []delta.AggSpec // a summary view's aggregates
	accums []*delta.Accum  // the group being read's, reused
}

// Read restores a snapshot into w, whose catalog must match the snapshot's
// (same view names in the same order, schema-compatible rows). The snapshot
// is read in one sized read (journal.ReadAll) and verified whole — frame
// CRCs, fields, row encodings and widths, accumulator states, the end frame,
// and that nothing follows it — while each view's state is built into a
// fresh store beside the live one, straight from the view's chunk frames
// (storage.Builder). The fresh stores are swapped in only after every check
// has passed, so on error w is left exactly as it was.
func Read(w *core.Warehouse, in io.Reader) error {
	if pending := w.PendingViews(); len(pending) > 0 {
		return fmt.Errorf("snapshot: refusing to restore over pending changes on %v", pending)
	}
	buf, err := journal.ReadAll(in)
	if err != nil {
		return fmt.Errorf("snapshot: reading: %w", err)
	}
	if bytes.HasPrefix(buf, []byte(oldMagic)) {
		return errors.New("snapshot: a " + oldMagic + " snapshot, the format written before snapshots were journal frames, is not read: write it again with the build that wrote it")
	}
	r := reader{w: w, names: w.ViewNames(), size: len(buf)}
	n, err := journal.Scan(buf, r.frame)
	switch {
	case r.ended && n < len(buf):
		return errors.New("snapshot: trailing garbage after the end frame")
	case err != nil:
		return fmt.Errorf("snapshot: %w", err)
	case !r.ended:
		return fmt.Errorf("snapshot: %w: the snapshot ends before its end frame", io.ErrUnexpectedEOF)
	}

	// Everything verified — swap the built state in.
	for _, sv := range r.views {
		if sv.rows != nil {
			sv.rows.Done()
		} else {
			sv.groups.Done()
		}
		sv.view.Replace(sv.table)
	}
	return nil
}

// reader builds the views of a snapshot from its frames as journal.Scan
// hands them over.
type reader struct {
	w     *core.Warehouse
	names []string
	size  int          // the snapshot's bytes, which bound what a view can hold
	views []stagedView // the views read; the last is the one being read
	left  uint64       // the rows or groups of the last view still to come
	begun bool         // the header was read
	ended bool         // the end frame was read
}

func (r *reader) frame(typ byte, payload []byte, _ int) error {
	switch {
	case r.ended:
		return errors.New("a frame after the end frame")
	case !r.begun && typ != typeHeader:
		return fmt.Errorf("a snapshot begins with its header frame, not a frame of type %d", typ)
	case typ == typeHeader:
		c := journal.NewCursor("header", payload)
		n := c.Uvarint("view count")
		if err := c.Done(); err != nil {
			return err
		}
		if r.begun {
			return errors.New("a second header frame")
		}
		if n != uint64(len(r.names)) {
			return fmt.Errorf("holds %d views but catalog defines %d", n, len(r.names))
		}
		r.begun = true
		return nil
	case typ == typeChunk && len(r.views) > 0:
		return r.chunk(payload)
	case typ != typeView && typ != typeEnd:
		return fmt.Errorf("a frame of type %d where a view or end frame belongs", typ)
	case len(r.views) > 0 && r.left > 0:
		return fmt.Errorf("view %s ends %d entries short", r.views[len(r.views)-1].view.Name(), r.left)
	case typ == typeEnd:
		if len(r.views) < len(r.names) {
			return fmt.Errorf("the end frame follows %d of %d views", len(r.views), len(r.names))
		}
		if len(payload) != 0 {
			return errors.New("the end frame has a payload")
		}
		r.ended = true
		return nil
	}
	c := journal.NewCursor("view", payload)
	name, kind, count := c.String("name"), c.Byte("kind"), c.Uvarint("entry count")
	if err := c.Done(); err != nil {
		return err
	}
	i := len(r.views)
	if i == len(r.names) {
		return fmt.Errorf("view %q beyond the %d the catalog defines", name, i)
	}
	if name != r.names[i] {
		return fmt.Errorf("view %q where catalog expects %q (definition order must match)", name, r.names[i])
	}
	v := r.w.MustView(name)
	if agg := v.IsAggregate(); kind > kindAgg || agg != (kind == kindAgg) {
		return fmt.Errorf("view %q is of kind %d in the snapshot, and aggregate=%v in the catalog", name, kind, agg)
	}
	// The count sizes the build, so it is trusted no further than the bytes
	// present: an entry takes two at the least.
	sv, hint := stagedView{view: v, table: v.NewTable()}, int(min(count, uint64(r.size/2)))
	if v.IsAggregate() {
		sv.groups, sv.specs = sv.table.BuildGroups(hint), v.Def().AggSpecs()
	} else {
		sv.rows = sv.table.Build(hint)
	}
	r.views = append(r.views, sv)
	r.left = count
	return nil
}

// chunk builds a chunk of the last view's rows or groups.
func (r *reader) chunk(payload []byte) error {
	sv := &r.views[len(r.views)-1]
	c := journal.NewCursor(sv.view.Name(), payload)
	n := c.Count("chunk length")
	if n == 0 || n > chunkRows || uint64(n) > r.left {
		c.Fail("chunk length", fmt.Errorf("%d entries, where a chunk holds 1 to %d and the view %d more", n, chunkRows, r.left))
	}
	r.left -= uint64(min(uint64(n), r.left))
	for i := 0; i < n && c.Err() == nil; i++ {
		if sv.rows != nil {
			sv.row(c)
		} else {
			sv.group(c)
		}
	}
	return c.Done()
}

func (sv *stagedView) row(c *journal.Cursor) {
	key, count := c.Bytes("row"), c.Varint("row count")
	if c.Err() == nil {
		if err := sv.rows.Add(key, count); err != nil {
			c.Fail("row", err)
		}
	}
}

func (sv *stagedView) group(c *journal.Cursor) {
	key, support := c.Bytes("group key"), c.Varint("group support")
	sv.accums = sv.accums[:0]
	for _, spec := range sv.specs {
		sv.accums = append(sv.accums, delta.DecodeAccum(c, spec))
	}
	if c.Err() == nil {
		if err := sv.groups.Add(key, support, sv.accums); err != nil {
			c.Fail("group", err)
		}
	}
}

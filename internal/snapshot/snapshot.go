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
	"repro/internal/relation"
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
	sw.frame(typeHeader, binary.AppendUvarint(nil, uint64(len(names))))
	for _, name := range names {
		v := w.MustView(name)
		if agg := v.AggStore(); agg != nil {
			sw.view(name, kindAgg, agg.Cardinality())
			agg.ScanGroups(func(key string, support int64, accums []*delta.Accum) bool {
				sw.body = binary.AppendVarint(journal.AppendString(sw.body, key), support)
				for _, a := range accums {
					sw.body = a.AppendBinary(sw.body)
				}
				return sw.entry()
			})
		} else {
			sw.view(name, kindTable, v.Table().DistinctCount())
			v.Table().ScanEncoded(func(key string, count int64) bool {
				sw.body = binary.AppendVarint(journal.AppendString(sw.body, key), count)
				return sw.entry()
			})
		}
		sw.chunk()
	}
	sw.frame(typeEnd, nil)
	if sw.err != nil {
		return sw.err
	}
	return sw.out.Flush()
}

// writer emits a snapshot's frames. Its error — a failed write, or the
// context's once it is done — is the first one, and stops it.
type writer struct {
	ctx  context.Context
	out  *bufio.Writer
	name string // the view being written
	body []byte // the open chunk's entries
	n    int    // how many
	err  error
}

func (sw *writer) frame(typ byte, payload []byte) {
	if sw.err == nil {
		_, sw.err = sw.out.Write(journal.EncodeFrame(typ, payload))
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
	sw.frame(typeView, binary.AppendUvarint(append(journal.AppendString(nil, name), kind), uint64(count)))
}

// entry counts the entry just appended to the chunk, and writes the chunk
// once it is full. It reports whether the writer can go on.
func (sw *writer) entry() bool {
	if sw.n++; sw.n == chunkRows {
		sw.chunk()
	}
	return sw.err == nil
}

// chunk writes the open chunk, unless it is empty.
func (sw *writer) chunk() {
	if sw.n > 0 {
		sw.check("in")
		sw.frame(typeChunk, append(binary.AppendUvarint(nil, uint64(sw.n)), sw.body...))
	}
	sw.body, sw.n = sw.body[:0], 0
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
// snapshot is verified and decoded — frame CRCs, fields, row encodings,
// accumulator states, the end frame, and that nothing follows it — into
// staging buffers first; the warehouse is mutated only after every check
// has passed, so on error w is left exactly as it was.
func Read(w *core.Warehouse, in io.Reader) error {
	if pending := w.PendingViews(); len(pending) > 0 {
		return fmt.Errorf("snapshot: refusing to restore over pending changes on %v", pending)
	}
	buf, err := io.ReadAll(in)
	if err != nil {
		return fmt.Errorf("snapshot: reading: %w", err)
	}
	if bytes.HasPrefix(buf, []byte(oldMagic)) {
		return errors.New("snapshot: a " + oldMagic + " snapshot, the format written before snapshots were journal frames, is not read: write it again with the build that wrote it")
	}
	r := reader{w: w, names: w.ViewNames()}
	n, err := journal.Scan(buf, r.frame)
	switch {
	case r.ended && n < len(buf):
		return errors.New("snapshot: trailing garbage after the end frame")
	case err != nil:
		return fmt.Errorf("snapshot: %w", err)
	case !r.ended:
		return fmt.Errorf("snapshot: %w: the snapshot ends before its end frame", io.ErrUnexpectedEOF)
	}

	// Everything verified — swap the staged state in.
	for _, sv := range r.views {
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

// reader stages the frames of a snapshot as journal.Scan hands them over.
type reader struct {
	w     *core.Warehouse
	names []string
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
		return fmt.Errorf("view %s ends %d entries short", r.views[len(r.views)-1].name, r.left)
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
	if agg := r.w.MustView(name).AggStore() != nil; kind > kindAgg || agg != (kind == kindAgg) {
		return fmt.Errorf("view %q is of kind %d in the snapshot, and aggregate=%v in the catalog", name, kind, agg)
	}
	r.views = append(r.views, stagedView{name: name, isAgg: kind == kindAgg})
	r.left = count
	return nil
}

// chunk stages a chunk of the last view's rows or groups.
func (r *reader) chunk(payload []byte) error {
	sv := &r.views[len(r.views)-1]
	c := journal.NewCursor(sv.name, payload)
	n := c.Count("chunk length")
	if n == 0 || n > chunkRows || uint64(n) > r.left {
		c.Fail("chunk length", fmt.Errorf("%d entries, where a chunk holds 1 to %d and the view %d more", n, chunkRows, r.left))
	}
	r.left -= uint64(min(uint64(n), r.left))
	v := r.w.MustView(sv.name)
	for i := 0; i < n && c.Err() == nil; i++ {
		if sv.isAgg {
			sv.group(c, v.AggStore().Specs())
		} else {
			sv.row(c, len(v.Schema()))
		}
	}
	return c.Done()
}

func (sv *stagedView) row(c *journal.Cursor, width int) {
	key, count := c.String("row"), c.Varint("row count")
	tup, err := relation.DecodeTuple(key)
	switch {
	case c.Err() != nil:
	case err != nil:
		c.Fail("row", err)
	case len(tup) != width:
		c.Fail("row", fmt.Errorf("arity %d does not match schema width %d", len(tup), width))
	case count <= 0:
		c.Fail("row count", fmt.Errorf("non-positive row count %d", count))
	default:
		sv.rows = append(sv.rows, stagedRow{tup, count})
	}
}

func (sv *stagedView) group(c *journal.Cursor, specs []delta.AggSpec) {
	key, support := c.String("group key"), c.Varint("group support")
	accums := make([]*delta.Accum, len(specs))
	for j, spec := range specs {
		accums[j] = delta.DecodeAccum(c, spec)
	}
	_, err := relation.DecodeTuple(key)
	switch {
	case c.Err() != nil:
	case err != nil:
		c.Fail("group key", err)
	case support <= 0:
		c.Fail("group support", fmt.Errorf("non-positive group support %d", support))
	default:
		for j, a := range accums {
			if !a.Valid() {
				c.Fail("accumulator", fmt.Errorf("accumulator %d of group %q is invalid", j, key))
				return
			}
		}
		sv.groups = append(sv.groups, stagedGroup{key, support, accums})
	}
}

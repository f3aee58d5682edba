package storage

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/cowmap"
	"repro/internal/relation"
)

// Resident join indexes. The paper's engine scans every operand of every
// maintenance term, and its linear work metric prices exactly that; a term
// driven by a 1 % delta then reads the whole warehouse to find the few rows
// the delta joins. An Index is the auxiliary structure that finds them
// directly: a copy-on-write map (package cowmap) from the encoded
// projection of a row on the index columns to the table's rows that carry
// it. It belongs to the table the way the rows do —
//
//   - Insert, Delete and ApplyDelta keep it current: a row that appears or
//     vanishes updates every index, and so does a count that changes, since
//     a posting carries each row's count beside its tuple. A table built
//     fresh to replace one (a refresh's) starts with none; its joins build
//     what they probe again.
//   - Clone hands every index to the new handle in O(indexes), shared bucket
//     by bucket like the rows. A window that commits passes its indexes on
//     to the next; one that aborts loses only what it built.
//   - A write copies the bucket it lands in and replaces the posting it
//     changes. A posting is never modified once a map holds it: the handles
//     that share the bucket — a pinned epoch among them — may be reading it.
//
// The term engine asks for an index at the first probe of a join step
// (Table.JoinIndex), on the columns the step's compiled order names (package
// core, compileOrder): the index on column 0 for a step that binds it, else
// the index on exactly the step's key columns. So the indexes a table holds
// follow from the compiled orders and the batches, not from which join
// probed first. Every index counts its probes and its upkeep.
//
// Rows placed by their first column. Most join indexes are on column 0, the
// key a base table leads with, and an index there duplicates the row map's
// own structure at the price of one more bucket copy for every row a window
// changes. So while that index is narrow the table files each row under the
// hash of its first value (Table.slot) and the row map serves the index: a
// probe visits the entries filed under the key's hash and keeps those whose
// key begins with it, and the index holds no postings. The placement changes
// once, on the writer path, in ApplyDelta (Table.settle): it re-places the
// rows into fresh buckets — clones and pinned epochs keep the old ones.
// JoinIndex never re-places rows: it runs beside readers.

// posting is the rows that share one join key, each as the row map holds
// it — the stored tuple and its count — so that a probe reads no row map:
// the row itself when there is one (so a unique key costs no allocation),
// all of them in more otherwise. A table stores each row's tuple once, so
// the tuple names the row (see at).
type posting struct {
	one  storedRow
	more []storedRow
}

// Index is one resident join index of a Table handle.
type Index struct {
	t    *Table
	cols []int // ascending, distinct
	// keys is empty while the table's row map serves the index (served).
	keys cowmap.Map[posting]
	// probes and upkeep count the lookups served and the row arrivals,
	// departures and count changes applied; a clone starts from its
	// source's counts.
	probes, upkeep atomic.Int64
}

// IndexStats describes one resident index.
type IndexStats struct {
	// Cols is the indexed column positions, ascending.
	Cols []int
	// Keys is the number of distinct join keys, Rows the number of distinct
	// rows indexed; the index is unique when they are equal.
	Keys, Rows int64
	// Probes counts lookups served, Upkeep the row arrivals, departures and
	// count changes applied, over the life of the index across the handles
	// it passed through.
	Probes, Upkeep int64
	// Placed reports that the table's row map serves the index: its rows
	// are placed by their first column and the index holds no postings.
	Placed bool
}

// String renders the stats as "[cols] keys=… rows=… probes=… upkeep=…",
// followed by " placed" when the row map serves the index.
func (s IndexStats) String() string {
	out := fmt.Sprintf("%v keys=%d rows=%d probes=%d upkeep=%d", s.Cols, s.Keys, s.Rows, s.Probes, s.Upkeep)
	if s.Placed {
		out += " placed"
	}
	return out
}

// Probe calls fn with every row whose projection on the index columns
// encodes to key, and its count, until fn returns false: one lookup in the
// index, or in the row map when that serves the index. The tuples are the
// stored ones (see Table) and must not be modified. Probe allocates nothing
// and is safe from any number of goroutines while the handle is not
// written.
func (ix *Index) Probe(key []byte, fn func(relation.Tuple, int64) bool) {
	hash := cowmap.HashBytes(key)
	if ix.served() {
		ix.t.visitFirst(hash, key, func(_ string, r storedRow) bool { return fn(r.tup, r.count) })
		return
	}
	p, ok := ix.keys.GetBytes(hash, key)
	if !ok {
		return
	}
	if p.more == nil {
		fn(p.one.tup, p.one.count)
		return
	}
	for _, r := range p.more {
		if !fn(r.tup, r.count) {
			return
		}
	}
}

// CountProbes adds n to the index's probe counter; the prober counts its
// lookups itself and reports them in one step, off the probe path.
func (ix *Index) CountProbes(n int64) { ix.probes.Add(n) }

func (ix *Index) stats() IndexStats {
	return IndexStats{
		Cols: slices.Clone(ix.cols), Keys: int64(ix.keyCount()), Rows: int64(ix.t.rows.Len()),
		Probes: ix.probes.Load(), Upkeep: ix.upkeep.Load(), Placed: ix.served(),
	}
}

// onFirstColumn reports whether the index is on column 0 alone.
func (ix *Index) onFirstColumn() bool { return len(ix.cols) == 1 && ix.cols[0] == 0 }

// served reports whether the table's row map serves the index: it is on
// column 0, by whose values the table's rows are placed. A table holds at
// most one index on a column set (JoinIndex hands out the resident one).
func (ix *Index) served() bool { return ix.t.placed && ix.onFirstColumn() }

// keyCount returns the number of distinct keys the index holds. The index
// the row map serves counts its table's first values by a scan: a row
// counts when it is the first of its first value that its bucket holds.
func (ix *Index) keyCount() int {
	if !ix.served() {
		return ix.keys.Len()
	}
	n := 0
	ix.t.rows.Scan(func(hash uint64, key string, _ storedRow) bool {
		ix.t.visitFirst(hash, []byte(key[:relation.FirstLen(key)]), func(k string, _ storedRow) bool {
			if k == key {
				n++
			}
			return false
		})
		return true
	})
	return n
}

// appendKey appends the encoded projection of tup on the index columns.
func (ix *Index) appendKey(dst []byte, tup relation.Tuple) []byte {
	for _, c := range ix.cols {
		dst = tup[c : c+1].AppendEncoded(dst)
	}
	return dst
}

// postingOf returns the posting of an indexed row's key for writing, with
// the key encoded into buf and its hash: the bucket is now this handle's
// own, the posting's rows may still be shared (see add).
func (ix *Index) postingOf(buf []byte, tup relation.Tuple) (p *posting, hash uint64, key []byte) {
	key = ix.appendKey(buf, tup)
	hash = cowmap.HashBytes(key)
	p, existed := ix.keys.RefBytes(hash, key)
	if !existed {
		panic(fmt.Sprintf("storage: index %v does not hold a row of its table", ix.cols))
	}
	return p, hash, key
}

// add indexes a row that has just appeared. While an index is being built
// nothing else can see it and its postings grow in place; afterwards a
// posting that gains a row is replaced by a longer copy.
func (ix *Index) add(r storedRow, building bool) {
	var buf [64]byte
	key := ix.appendKey(buf[:0], r.tup)
	p, existed := ix.keys.RefBytes(cowmap.HashBytes(key), key)
	switch {
	case !existed:
		p.one = r
	case p.more == nil:
		p.more = []storedRow{p.one, r}
		p.one = storedRow{}
	case building:
		p.more = append(p.more, r)
	default:
		p.more = append(p.more[:len(p.more):len(p.more)], r)
	}
}

// recount gives a row whose count changed, the row itself staying, its new
// count: the entry is replaced in a copy of the posting, so the handles that
// share the old one keep the count they saw.
func (ix *Index) recount(r storedRow) {
	var buf [64]byte
	p, _, _ := ix.postingOf(buf[:0], r.tup)
	if p.more == nil {
		p.one = r
		return
	}
	more := slices.Clone(p.more)
	more[ix.at(more, r.tup)] = r
	p.more = more
}

// remove drops a row that has just vanished.
func (ix *Index) remove(tup relation.Tuple) {
	var buf [64]byte
	p, hash, key := ix.postingOf(buf[:0], tup)
	if p.more == nil {
		ix.keys.DeleteBytes(hash, key)
		return
	}
	i := ix.at(p.more, tup)
	if len(p.more) == 2 {
		*p = posting{one: p.more[1-i]}
		return
	}
	rest := make([]storedRow, 0, len(p.more)-1)
	p.more = append(append(rest, p.more[:i]...), p.more[i+1:]...)
}

// at returns the position in rows of the row whose stored tuple is tup. A
// table stores each row's tuple once and hands out only that array (see
// Table), so the array's identity names the row; an index is on at least one
// column, so the tuple is not empty.
func (ix *Index) at(rows []storedRow, tup relation.Tuple) int {
	for i, r := range rows {
		if &r.tup[0] == &tup[0] {
			return i
		}
	}
	panic(fmt.Sprintf("storage: index %v does not hold a row of its table", ix.cols))
}

// clone returns the index as the handle c holds it: the same entries,
// shared copy-on-write.
func (ix *Index) clone(c *Table) *Index {
	out := &Index{t: c, cols: ix.cols, keys: ix.keys.Clone()}
	out.probes.Store(ix.probes.Load())
	out.upkeep.Store(ix.upkeep.Load())
	return out
}

// maxServingFanOut is the mean number of rows per key up to which settle
// places a table's rows by their first column, so that the row map serves the
// index on column 0. A probe then visits that many rows on average, where
// postings of the index's own would cost every write that lands on the table
// one more bucket copy — the trade Mistry et al. price as benefit against
// upkeep.
const maxServingFanOut = 8

// narrow reports whether the index's mean fan-out, rows per key, is at most
// maxServingFanOut: settle's rule for placing the rows. An empty index is
// narrow.
func (ix *Index) narrow() bool { return ix.t.rows.Len() <= maxServingFanOut*ix.keyCount() }

// JoinIndex returns the resident index on the given column positions
// (ascending, distinct, not empty), building it by a scan of the rows if
// the handle does not hold it; scanned is the number of rows that scan
// read, 0 when the index was there.
//
// Safe to call from concurrent readers of the handle: the terms of several
// compute expressions on concurrent DAG workers may all arrive at a first
// probe together; one builds and the others wait.
func (t *Table) JoinIndex(cols []int) (ix *Index, scanned int64) {
	for i, c := range cols {
		if c < 0 || c >= len(t.schema) || (i > 0 && cols[i-1] >= c) {
			panic(fmt.Sprintf("storage: index columns %v on a table of width %d", cols, len(t.schema)))
		}
	}
	if len(cols) == 0 {
		panic("storage: index on no columns")
	}
	t.idxMu.RLock()
	ix = t.resident(cols)
	t.idxMu.RUnlock()
	if ix != nil {
		return ix, 0
	}
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	if ix = t.resident(cols); ix != nil {
		return ix, 0
	}
	ix = &Index{t: t, cols: slices.Clone(cols)}
	t.rows.Scan(func(_ uint64, _ string, r storedRow) bool {
		ix.add(r, true)
		return true
	})
	t.indexes = append(t.indexes, ix)
	return ix, int64(t.rows.Len())
}

// resident returns the handle's index on cols, or nil. Callers hold idxMu.
func (t *Table) resident(cols []int) *Index {
	for _, ix := range t.indexes {
		if slices.Equal(ix.cols, cols) {
			return ix
		}
	}
	return nil
}

// IndexStats describes the table's resident indexes in creation order.
func (t *Table) IndexStats() []IndexStats {
	t.idxMu.RLock()
	defer t.idxMu.RUnlock()
	out := make([]IndexStats, len(t.indexes))
	for i, ix := range t.indexes {
		out[i] = ix.stats()
	}
	return out
}

// indexInsert, indexRecount and indexDelete keep every index current:
// insertKey calls the first when a row appears and the second when a row it
// holds gains copies, deleteKey the last when a row's last copy goes and the
// second when some stay. The index the row map serves has nothing to write,
// but counts the change as upkeep like the others.
func (t *Table) indexInsert(r storedRow) {
	for _, ix := range t.indexes {
		if !ix.served() {
			ix.add(r, false)
		}
		ix.upkeep.Add(1)
	}
}

func (t *Table) indexRecount(r storedRow) {
	for _, ix := range t.indexes {
		if !ix.served() {
			ix.recount(r)
		}
		ix.upkeep.Add(1)
	}
}

func (t *Table) indexDelete(tup relation.Tuple) {
	for _, ix := range t.indexes {
		if !ix.served() {
			ix.remove(tup)
		}
		ix.upkeep.Add(1)
	}
}

// settle places the rows by their first value before a batch installs, if
// they are not placed yet and the handle holds a narrow index on [0]. The
// rows go into fresh buckets of a new row map, the old one left to the
// clones and pinned epochs that share it, and the index drops its postings.
// ApplyDelta calls it, the writer path, so no reader of the handle sees the
// switch. The placement stays when the column later widens: a bucket then
// holds every row of a first value, which an install pays for in key
// compares instead of the posting copies an index would make, no more per
// changed row, while a probe reads each row's key as well as its tuple
// (BenchmarkWideFirstColumn; docs/PERF.md, "PR 38").
func (t *Table) settle() {
	i := slices.IndexFunc(t.indexes, (*Index).onFirstColumn)
	if t.placed || i < 0 || !t.indexes[i].narrow() {
		return
	}
	// The index is the handle's own (Clone gives every handle a copy), so it
	// changes in place: a join step that resolved it keeps probing it.
	ix := t.indexes[i]
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	old := t.rows // only read, then dropped
	t.rows = cowmap.Map[storedRow]{}
	t.rows.Grow(old.Len())
	ix.keys = cowmap.Map[posting]{}
	t.placed = true
	old.Scan(func(_ uint64, key string, r storedRow) bool {
		slot, _ := t.rows.Ref(cowmap.Hash(key[:relation.FirstLen(key)]), key)
		*slot = r
		return true
	})
}

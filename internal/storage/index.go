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
// directly: a second filing of the table's own rows, a copy-on-write map
// (package cowmap) that holds each row under its key, with the tuple and
// count the row map holds, hashed by the CRC of the row's projection on the
// index columns. A probe visits the entries filed under its key's CRC
// and keeps the rows that project to the key. It belongs to the table the
// way the rows do —
//
//   - Insert, Delete and ApplyDelta keep it current: a row that appears, or
//     whose count changes, is one entry written; a row that vanishes is one
//     entry deleted. A table built fresh to replace one (a refresh's) starts
//     with none; its joins build what they probe again.
//   - Clone hands every index to the new handle in O(indexes), shared bucket
//     by bucket like the rows. A window that commits passes its indexes on
//     to the next; one that aborts loses only what it built.
//
// The term engine asks for an index at the first probe of a join step
// (Table.JoinIndex), on the columns the step's compiled order names (package
// core, compileOrder): the index on column 0 for a step that binds it, else
// the index on exactly the step's key columns. So the indexes a table holds
// follow from the compiled orders and the batches, not from which join
// probed first. Every index counts its probes and its upkeep.
//
// Rows placed by their first column. Most join indexes are on column 0, the
// key a base table leads with, and such an index files the table's rows
// exactly as the row map would if it hashed each row by its first value
// (Table.slot). So the first install into a table that holds it
// (Table.settle, on the writer path) makes the index's map the row map, in
// O(1): the rows are placed by their first column from then on, the row map
// serves the index, and every write to the table is one bucket copy fewer.
// A summary table is placed by its grouping columns when it is made
// (NewSummaryTable), and its row map serves the index on those columns.

// Index is one resident join index of a Table handle.
type Index struct {
	t    *Table
	cols []int // ascending, distinct
	// rows holds every row of the table under its key and the hash of its
	// projection on cols; it is empty while the table's row map serves the
	// index (served).
	rows cowmap.Map[storedRow]
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
	// are placed by the index's columns and the index files no rows of its
	// own.
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
// encodes to key, and its count, until fn returns false: one visit of the
// entries filed under the key's CRC, in the index's map or in the row map
// when that serves the index. The tuples are the stored ones (see Table)
// and must not be modified. Probe allocates nothing and is safe from any
// number of goroutines while the handle is not written.
func (ix *Index) Probe(key []byte, fn func(relation.Tuple, int64) bool) {
	ix.entries().Visit(cowmap.HashBytes(key), func(k string, r storedRow) bool {
		return !ix.projects(k, key) || fn(r.tup, r.count)
	})
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

// onLeading reports whether the index is on the first n columns, no more.
// Its columns ascend from 0, so the last is n-1 exactly when they are 0…n-1.
func (ix *Index) onLeading(n int) bool { return len(ix.cols) == n && ix.cols[n-1] == n-1 }

// onFirstColumn reports whether the index is on column 0 alone.
func (ix *Index) onFirstColumn() bool { return ix.onLeading(1) }

// served reports whether the table's row map serves the index: it is on the
// leading columns by whose values the table's rows are placed. A table
// holds at most one index on a column set (JoinIndex hands out the resident
// one).
func (ix *Index) served() bool { return ix.t.placed > 0 && ix.onLeading(ix.t.placed) }

// entries returns the map that files the table's rows by the index's key:
// the index's own, or the row map while that serves it.
func (ix *Index) entries() *cowmap.Map[storedRow] {
	if ix.served() {
		return &ix.t.rows
	}
	return &ix.rows
}

// keyCount returns the number of distinct keys the index holds, by a scan:
// a row counts when it is the first of its key that its bucket holds.
func (ix *Index) keyCount() int {
	m := ix.entries()
	n := 0
	var key []byte
	m.Scan(func(hash uint64, rowKey string, r storedRow) bool {
		key = ix.appendKey(key[:0], r.tup)
		m.Visit(hash, func(k string, _ storedRow) bool {
			if !ix.projects(k, key) {
				return true
			}
			if k == rowKey {
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

// hash returns the CRC of the projection on the index columns of the row
// encoded as rowKey: the hash the index files the row under, and for the
// index on column 0 the one Table.slot places it by. It walks the key's
// self-delimiting values and continues the CRC over each indexed one.
func (ix *Index) hash(rowKey string) uint64 {
	var h uint64 // the CRC of no bytes
	at := 0
	for _, c := range ix.cols {
		for ; at < c; at++ {
			rowKey = rowKey[relation.FirstLen(rowKey):]
		}
		n := relation.FirstLen(rowKey)
		h = cowmap.ExtendString(h, rowKey[:n])
		rowKey, at = rowKey[n:], at+1
	}
	return h
}

// projects reports whether the row encoded as rowKey projects on the index
// columns to the encoding key. It walks the row key to each index column and
// compares that value's encoding with key's next bytes — for the last
// column, key's rest as a prefix, since an encoding delimits itself. Only a
// row whose projection shares key's CRC by chance is rejected here.
func (ix *Index) projects(rowKey string, key []byte) bool {
	at, last := 0, len(ix.cols)-1
	for _, c := range ix.cols[:last] {
		for ; at < c; at++ {
			rowKey = rowKey[relation.FirstLen(rowKey):]
		}
		n := relation.FirstLen(rowKey)
		if len(key) < n || rowKey[:n] != string(key[:n]) {
			return false
		}
		rowKey, key, at = rowKey[n:], key[n:], at+1
	}
	for ; at < ix.cols[last]; at++ {
		rowKey = rowKey[relation.FirstLen(rowKey):]
	}
	return len(rowKey) >= len(key) && rowKey[:len(key)] == string(key)
}

// clone returns the index as the handle c holds it: the same entries,
// shared copy-on-write.
func (ix *Index) clone(c *Table) *Index {
	out := &Index{t: c, cols: ix.cols, rows: ix.rows.Clone()}
	out.probes.Store(ix.probes.Load())
	out.upkeep.Store(ix.upkeep.Load())
	return out
}

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
	ix.rows.Grow(t.rows.Len())
	t.rows.Scan(func(_ uint64, key string, r storedRow) bool {
		slot, _ := ix.rows.Ref(ix.hash(key), key)
		*slot = storedRow{tup: r.tup, count: r.count}
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

// indexPut and indexDelete keep every index current: insertKey calls the
// first when a row appears or gains copies and deleteKey when some copies
// stay, with the row as the row map now holds it; deleteKey calls the second
// when a row's last copy goes. Each index takes the key string the row map
// holds, so an index entry allocates no key of its own, and not the row's
// group, which only the row map holds. The index the row map serves has
// nothing to write, but counts the change as upkeep like the others.
func (t *Table) indexPut(key string, r storedRow) {
	r.group = nil
	for _, ix := range t.indexes {
		if !ix.served() {
			slot, _ := ix.rows.Ref(ix.hash(key), key)
			*slot = r
		}
		ix.upkeep.Add(1)
	}
}

func (t *Table) indexDelete(key string) {
	for _, ix := range t.indexes {
		if !ix.served() {
			ix.rows.Delete(ix.hash(key), key)
		}
		ix.upkeep.Add(1)
	}
}

// settle places the rows by their first value before a batch installs, if
// they are not placed yet and the handle holds an index on [0]: that index's
// map, which files every row under its first value's CRC, becomes the row
// map, and the old row map is dropped — the clones and pinned epochs that
// share its buckets keep them. ApplyDelta calls it, the writer path, so no
// reader of the handle sees the switch. The placement stays however wide
// the column grows: a bucket then holds every row of a first value, which
// an install pays for in key compares and a probe in reading each row's key
// (BenchmarkWideFirstColumn).
func (t *Table) settle() {
	i := slices.IndexFunc(t.indexes, (*Index).onFirstColumn)
	if t.placed > 0 || i < 0 {
		return
	}
	// The index is the handle's own (Clone gives every handle a copy), so it
	// changes in place: a join step that resolved it keeps probing it.
	ix := t.indexes[i]
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	t.rows, ix.rows = ix.rows, cowmap.Map[storedRow]{}
	t.placed = 1
}

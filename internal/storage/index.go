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
//   - Insert, Delete, ApplyDelta and Clear keep it current: a row that
//     appears or vanishes updates every index, and so does a count that
//     changes, since a posting carries each row's count beside its tuple.
//   - Clone hands every index to the new handle in O(indexes), shared bucket
//     by bucket like the rows. A window that commits passes its indexes on
//     to the next; one that aborts loses only what it built.
//   - A write copies the bucket it lands in and replaces the posting it
//     changes. A posting is never modified once a map holds it: the handles
//     that share the bucket — a pinned epoch among them — may be reading it.
//
// The term engine asks for an index at the first probe of a join step
// (Table.JoinIndex); the one rule here is that a narrow index — at most
// maxServingFanOut rows a key — serves joins on more columns, and retires
// the indexes on them. Every index counts its probes and its upkeep so that
// a later election can decide the rest.

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
	keys cowmap.Map[posting]
	// probes and upkeep count the lookups served and the row arrivals,
	// departures and count changes applied; a clone starts from its
	// source's counts, and a narrow index from those of the indexes it
	// retires.
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
	// it passed through and of the indexes it retired.
	Probes, Upkeep int64
}

// String renders the stats as "[cols] keys=… rows=… probes=… upkeep=…".
func (s IndexStats) String() string {
	return fmt.Sprintf("%v keys=%d rows=%d probes=%d upkeep=%d", s.Cols, s.Keys, s.Rows, s.Probes, s.Upkeep)
}

// Cols returns the indexed column positions, ascending. The slice is the
// index's own and must not be modified.
func (ix *Index) Cols() []int { return ix.cols }

// Probe calls fn with every row whose projection on Cols encodes to key,
// and its count, until fn returns false: one lookup in the index, none in
// the row map. The tuples are the stored ones (see Table) and must not be
// modified. Probe allocates nothing and is safe from any number of
// goroutines while the handle is not written.
func (ix *Index) Probe(key []byte, fn func(relation.Tuple, int64) bool) {
	p, ok := ix.keys.GetBytes(cowmap.HashBytes(key), key)
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
		Cols: slices.Clone(ix.cols), Keys: int64(ix.keys.Len()), Rows: int64(ix.t.rows.Len()),
		Probes: ix.probes.Load(), Upkeep: ix.upkeep.Load(),
	}
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

// maxServingFanOut is the mean number of rows per key up to which an index
// serves a join on a superset of its columns. Such a probe yields that many
// candidates on average, each checked on the remaining columns, where an
// index on the superset would cost every write that lands on the table one
// more map write — the trade Mistry et al. price as benefit against upkeep.
const maxServingFanOut = 8

// narrow reports whether the index's mean fan-out, rows per key, is at most
// maxServingFanOut. An empty index is narrow.
func (ix *Index) narrow() bool { return ix.t.rows.Len() <= maxServingFanOut*ix.keys.Len() }

// JoinIndex returns the resident index that serves an equi-join on the
// given column positions (ascending, distinct, not empty), building one by
// a scan of the rows if none does; scanned is the number of rows that scan
// read, 0 when an index was there. The index returned is on cols, or on a
// narrow subset of them: it finds the few candidate rows, and the caller
// checks the remaining columns on each.
//
// A narrow index that JoinIndex builds retires the handle's indexes on
// supersets of its columns, which it serves from then on: they leave this
// handle's set and are never written again, while clones and pinned epochs
// that hold them keep their own copies. So the indexes a table ends with do
// not depend on which join probed first.
//
// Safe to call from concurrent readers of the handle: morsels of one join
// step, and terms of several compute expressions, may all arrive at a
// first probe together; one builds and the others wait. A reader that got a
// retired index may go on probing it: the handle is not written while read.
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
	ix = t.serving(cols)
	t.idxMu.RUnlock()
	if ix != nil {
		return ix, 0
	}
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	if ix = t.serving(cols); ix != nil {
		return ix, 0
	}
	ix = &Index{t: t, cols: slices.Clone(cols)}
	t.rows.Scan(func(_ uint64, _ string, r storedRow) bool {
		ix.add(r, true)
		return true
	})
	// The writer's hooks range over the slice they loaded; publish a new one.
	// A retired index's counts go to the index that serves its joins now.
	retire := ix.narrow()
	kept := make([]*Index, 0, len(t.indexes)+1)
	for _, old := range t.indexes {
		if retire && subset(cols, old.cols) {
			ix.probes.Add(old.probes.Load())
			ix.upkeep.Add(old.upkeep.Load())
			continue
		}
		kept = append(kept, old)
	}
	t.indexes = append(kept, ix)
	return ix, int64(t.rows.Len())
}

// serving returns the index JoinIndex hands out for cols among those
// resident — the one on cols, else the first narrow one on a subset — or
// nil. Callers hold idxMu.
func (t *Table) serving(cols []int) *Index {
	var sub *Index
	for _, ix := range t.indexes {
		if slices.Equal(ix.cols, cols) {
			return ix
		}
		if sub == nil && subset(ix.cols, cols) && ix.narrow() {
			sub = ix
		}
	}
	return sub
}

// subset reports whether every element of a is in b; both ascend.
func subset(a, b []int) bool {
	for _, c := range a {
		if _, ok := slices.BinarySearch(b, c); !ok {
			return false
		}
	}
	return true
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
// second when some stay.
func (t *Table) indexInsert(r storedRow) {
	for _, ix := range t.indexes {
		ix.add(r, false)
		ix.upkeep.Add(1)
	}
}

func (t *Table) indexRecount(r storedRow) {
	for _, ix := range t.indexes {
		ix.recount(r)
		ix.upkeep.Add(1)
	}
}

func (t *Table) indexDelete(tup relation.Tuple) {
	for _, ix := range t.indexes {
		ix.remove(tup)
		ix.upkeep.Add(1)
	}
}

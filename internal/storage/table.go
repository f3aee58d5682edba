// Package storage implements the materialized storage layer of the
// warehouse: counted bag tables for select-project-join views and base
// views, and group-state tables for aggregate (summary) views.
//
// All storage is multiset (bag) semantics with explicit counts, which is the
// representation the counting algorithm of Griffin & Libkin [GL95] requires
// for correct incremental maintenance in the presence of duplicates.
package storage

import (
	"encoding/binary"
	"fmt"
	"maps"
	"sort"
	"sync"

	"repro/internal/cowmap"
	"repro/internal/delta"
	"repro/internal/relation"
)

// Table is a bag of tuples with a fixed schema, stored as a copy-on-write
// hash table (package cowmap) from the tuple encoding to the decoded tuple
// and its multiplicity. Multiplicities are always positive; installing a
// change batch that would drive a count negative is an error (it indicates
// an incorrect maintenance strategy upstream).
//
// A stored tuple is written once, when its row first appears, and never
// again: Scan, Index.Probe and SortedRows hand out that tuple itself, shared by
// every copy-on-write clone of the table and so by every epoch that still
// holds the row. Callers must treat it as immutable. Its capacity equals
// its length, so appending to it copies.
//
// Handles are single-writer. A write through one handle copies the bucket
// it lands in and leaves every other handle's view of the rows untouched,
// so handles that are only read need no lock while a clone is written.
type Table struct {
	schema relation.Schema
	rows   cowmap.Map[storedRow]
	card   int64 // total multiplicity (sum of counts)
	// digest is the XOR over rows of rowDigest: the table's term of the
	// warehouse state digest, kept current by every count change.
	digest uint64
	// indexes holds the resident join indexes (see index.go), which the
	// writes below keep current and Clone hands on. idxMu guards the slice,
	// not the indexes: readers of a handle may create an index on it — the
	// morsels and terms that reach a join step's first probe together, a
	// reader of the live handle while a window clones it — and only one of
	// them may build. The handle's writer needs no lock: nothing reads a
	// handle while it is written.
	idxMu   sync.RWMutex
	indexes []*Index
}

// storedRow is one distinct tuple of a table: its decoded form and multiplicity.
type storedRow struct {
	tup   relation.Tuple
	count int64
}

// NewTable creates an empty table with the given schema.
func NewTable(schema relation.Schema) *Table {
	return &Table{schema: schema.Clone()}
}

// rowDigest fingerprints one row: the CRC-64/ECMA of its encoding followed
// by its count as a varint, continued from the encoding's stored hash. It
// is the per-row term of recovery.StateDigest, whose values journals and
// followers have recorded; it must not change.
func rowDigest(keyHash uint64, count int64) uint64 {
	var buf [binary.MaxVarintLen64]byte
	return cowmap.Extend(keyHash, buf[:binary.PutVarint(buf[:], count)])
}

// scanDigest is the digest of rows as a full scan computes it: what a
// running digest must equal.
func scanDigest(scanEncoded func(func(key string, count int64) bool)) uint64 {
	var h uint64
	scanEncoded(func(key string, count int64) bool {
		h ^= rowDigest(cowmap.Hash(key), count)
		return true
	})
	return h
}

// Digest returns the order-independent fingerprint of the table's rows,
// the XOR of each row's CRC, in O(1): it is maintained as rows change.
func (t *Table) Digest() uint64 { return t.digest }

// CheckDigest recomputes the digest by a scan of every row and reports a
// running digest that has drifted from it.
func (t *Table) CheckDigest() error {
	if want := scanDigest(t.ScanEncoded); t.digest != want {
		return fmt.Errorf("storage: running digest %016x, a scan of the rows gives %016x", t.digest, want)
	}
	return nil
}

// CheckIndexes compares every resident index of the handle with one built by
// a scan of its rows: the same keys, and under each the same rows with the
// same counts.
func (t *Table) CheckIndexes() error {
	t.idxMu.RLock()
	defer t.idxMu.RUnlock()
	for _, ix := range t.indexes {
		want := make(map[string]map[string]int64) // key → row → count
		t.Scan(func(tup relation.Tuple, count int64) bool {
			key := string(ix.appendKey(nil, tup))
			if want[key] == nil {
				want[key] = make(map[string]int64)
			}
			want[key][tup.Encode()] = count
			return true
		})
		if ix.keys.Len() != len(want) {
			return fmt.Errorf("storage: index %v holds %d keys, a scan of the rows finds %d", ix.cols, ix.keys.Len(), len(want))
		}
		for key, rows := range want {
			got := make(map[string]int64)
			ix.Probe([]byte(key), func(tup relation.Tuple, count int64) bool {
				got[tup.Encode()] += count
				return true
			})
			if !maps.Equal(got, rows) {
				return fmt.Errorf("storage: index %v under key %q yields %v, a scan of the rows finds %v", ix.cols, key, got, rows)
			}
		}
		if st := ix.stats(); st.Keys != int64(len(want)) || st.Rows != t.DistinctCount() {
			return fmt.Errorf("storage: index %v reports %d keys of %d rows, want %d of %d", ix.cols, st.Keys, st.Rows, len(want), t.DistinctCount())
		}
	}
	return nil
}

// Schema returns the table's schema.
func (t *Table) Schema() relation.Schema { return t.schema }

// Cardinality returns the total number of rows, counting duplicates.
func (t *Table) Cardinality() int64 { return t.card }

// DistinctCount returns the number of distinct rows.
func (t *Table) DistinctCount() int64 { return int64(t.rows.Len()) }

// Grow sizes the table for n more distinct rows at once; a load whose size
// is known calls it first.
func (t *Table) Grow(n int) { t.rows.Grow(n) }

// Insert adds count copies of the tuple. Count must be positive. The table
// keeps nothing of tup itself; the caller may reuse or modify it.
func (t *Table) Insert(tup relation.Tuple, count int64) {
	if count <= 0 {
		panic(fmt.Sprintf("storage: Insert with non-positive count %d", count))
	}
	key := encodeKey(tup)
	t.insertKey(cowmap.Hash(key), key, nil, count)
}

// encodeKey is tup.Encode() through a stack buffer: one allocation, the
// key itself, for rows that encode to 128 bytes or fewer.
func encodeKey(tup relation.Tuple) string {
	var buf [128]byte
	return string(tup.AppendEncoded(buf[:0]))
}

// insertKey adds count copies of the row encoded as key. A row new to the
// table stores tup, which is key decoded and becomes read-only, or — when tup
// is nil — decodes key itself; either way the tuple's strings are substrings
// of the key the table holds anyway.
func (t *Table) insertKey(hash uint64, key string, tup relation.Tuple, count int64) {
	r, existed := t.rows.Ref(hash, key)
	if existed {
		t.digest ^= rowDigest(hash, r.count)
	} else {
		if tup == nil {
			tup = mustDecode(key)
		}
		r.tup = tup
	}
	r.count += count
	t.digest ^= rowDigest(hash, r.count)
	t.card += count
	if existed {
		t.indexRecount(*r)
	} else {
		t.indexInsert(*r)
	}
}

func mustDecode(key string) relation.Tuple {
	tup, err := relation.DecodeTuple(key)
	if err != nil {
		panic(fmt.Sprintf("storage: corrupt row encoding: %v", err))
	}
	return tup
}

// Delete removes count copies of the tuple. It returns an error if fewer
// than count copies exist.
func (t *Table) Delete(tup relation.Tuple, count int64) error {
	if count <= 0 {
		return fmt.Errorf("storage: Delete with non-positive count %d", count)
	}
	key := encodeKey(tup)
	hash := cowmap.Hash(key)
	have := t.countKey(hash, key)
	if have < count {
		return fmt.Errorf("storage: delete of %d copies of %v but only %d present", count, tup, have)
	}
	t.deleteKey(hash, key, count, have)
	return nil
}

// deleteKey removes count of the have copies of the row encoded as key; the
// caller has looked have up and checked that it is at least count.
func (t *Table) deleteKey(hash uint64, key string, count, have int64) {
	t.digest ^= rowDigest(hash, have)
	if have == count {
		r, _ := t.rows.Delete(hash, key)
		t.indexDelete(r.tup)
	} else {
		r, _ := t.rows.Ref(hash, key)
		r.count -= count
		t.digest ^= rowDigest(hash, r.count)
		t.indexRecount(*r)
	}
	t.card -= count
}

func (t *Table) countKey(hash uint64, key string) int64 {
	r, _ := t.rows.Get(hash, key)
	return r.count
}

// Count returns the multiplicity of the tuple (0 if absent).
func (t *Table) Count(tup relation.Tuple) int64 {
	key := encodeKey(tup)
	return t.countKey(cowmap.Hash(key), key)
}

// Scan calls fn for each distinct row with its multiplicity. Iteration stops
// early if fn returns false. Iteration order is unspecified. The tuple is
// the stored one (see Table): fn may keep it but must not modify it.
func (t *Table) Scan(fn func(tup relation.Tuple, count int64) bool) {
	t.rows.Scan(func(_ uint64, _ string, r storedRow) bool { return fn(r.tup, r.count) })
}

// ScanEncoded is Scan over the rows' Tuple.Encode keys, for callers that
// fingerprint or persist rows and never look inside them.
func (t *Table) ScanEncoded(fn func(key string, count int64) bool) {
	t.rows.Scan(func(_ uint64, key string, r storedRow) bool { return fn(key, r.count) })
}

// SortedRows returns all distinct rows with counts, sorted lexicographically.
// Intended for tests and deterministic output. The tuples are the stored
// ones and must not be modified.
func (t *Table) SortedRows() []CountedTuple {
	out := make([]CountedTuple, 0, t.rows.Len())
	t.Scan(func(tup relation.Tuple, count int64) bool {
		out = append(out, CountedTuple{Tuple: tup, Count: count})
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		return relation.CompareTuples(out[i].Tuple, out[j].Tuple) < 0
	})
	return out
}

// CountedTuple pairs a tuple with a multiplicity.
type CountedTuple struct {
	Tuple relation.Tuple
	Count int64
}

// Clone returns an independent copy of the table in O(1): the rows are
// shared copy-on-write, and from here on a write through either handle
// copies the buckets it touches (see cowmap). An epoch that clones a
// hundred-relation warehouse therefore pays only for the rows its update
// window actually changes. The resident indexes go with the rows, shared
// the same way, in O(indexes).
func (t *Table) Clone() *Table {
	c := &Table{schema: t.schema.Clone(), rows: t.rows.Clone(), card: t.card, digest: t.digest}
	t.idxMu.Lock() // cloning an index's map writes its token
	defer t.idxMu.Unlock()
	if len(t.indexes) > 0 {
		c.indexes = make([]*Index, len(t.indexes))
		for i, ix := range t.indexes {
			c.indexes[i] = ix.clone(c)
		}
	}
	return c
}

// Equal reports whether two tables hold the same bag of rows.
func (t *Table) Equal(o *Table) bool {
	if t.rows.Len() != o.rows.Len() || t.card != o.card {
		return false
	}
	equal := true
	t.rows.Scan(func(hash uint64, key string, r storedRow) bool {
		equal = o.countKey(hash, key) == r.count
		return equal
	})
	return equal
}

// ApproxEqual reports whether two tables hold the same bag of rows, with
// float values compared under relative tolerance tol. Aggregates maintained
// incrementally accumulate floating-point sums in a different order than a
// from-scratch recomputation, so verification of views with float aggregates
// needs tolerant comparison; all other kinds compare exactly.
func (t *Table) ApproxEqual(o *Table, tol float64) bool {
	if t.card != o.card || t.rows.Len() != o.rows.Len() {
		return false
	}
	a, b := t.SortedRows(), o.SortedRows()
	for i := range a {
		if a[i].Count != b[i].Count || !approxTupleEqual(a[i].Tuple, b[i].Tuple, tol) {
			return false
		}
	}
	return true
}

func approxTupleEqual(a, b relation.Tuple, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind() == relation.KindFloat && b[i].Kind() == relation.KindFloat {
			x, y := a[i].Float(), b[i].Float()
			diff := x - y
			if diff < 0 {
				diff = -diff
			}
			limit := tol
			for _, m := range []float64{x, -x, y, -y} {
				if m*tol > limit {
					limit = m * tol
				}
			}
			if diff > limit {
				return false
			}
			continue
		}
		if !relation.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// ApplyDelta installs a change set: plus tuples are inserted, minus tuples
// deleted. The whole batch is validated before any mutation so an incorrect
// batch leaves the table untouched.
func (t *Table) ApplyDelta(d *delta.Delta) error {
	if !t.schema.Equal(d.Schema()) {
		return fmt.Errorf("storage: delta schema [%s] does not match table schema [%s]", d.Schema(), t.schema)
	}
	// One pass over the delta hashes each key once and checks the deletes;
	// the second installs from what the first collected.
	type change struct {
		hash        uint64
		key         string
		tup         relation.Tuple // nil unless the delta has decoded it already
		count, have int64          // have is looked up for deletes only
	}
	var err error
	changes := make([]change, 0, d.Distinct())
	plus := 0
	d.ScanKeyed(func(key string, tup relation.Tuple, count int64) bool {
		c := change{hash: cowmap.Hash(key), key: key, tup: tup, count: count}
		if count > 0 {
			plus++
		} else if c.have = t.countKey(c.hash, key); c.have < -count {
			err = fmt.Errorf("storage: delta deletes %d copies of %v but only %d present", -count, mustDecode(key), c.have)
			return false
		}
		changes = append(changes, c)
		return true
	})
	if err != nil {
		return err
	}
	t.rows.Grow(plus)
	// The table adopts the delta's key strings as its own and, for a row it
	// does not hold yet, the tuple the window's Comps decoded from the key —
	// decoding it only when none of them scanned the delta.
	for _, c := range changes {
		if c.count > 0 {
			t.insertKey(c.hash, c.key, c.tup, c.count)
		} else {
			t.deleteKey(c.hash, c.key, -c.count, c.have)
		}
	}
	return nil
}

// Clear removes every row. Resident indexes are emptied but kept. Rows
// shared with clones are simply abandoned to the other handles.
func (t *Table) Clear() {
	t.rows.Clear()
	t.card, t.digest = 0, 0
	for _, ix := range t.indexes {
		ix.keys.Clear()
	}
}

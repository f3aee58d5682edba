// Package storage implements the materialized storage layer of the
// warehouse: counted bag tables for select-project-join views and base
// views, and group-state tables for aggregate (summary) views.
//
// All storage is multiset (bag) semantics with explicit counts, which is the
// representation the counting algorithm of Griffin & Libkin [GL95] requires
// for correct incremental maintenance in the presence of duplicates.
package storage

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/delta"
	"repro/internal/relation"
)

// Table is a bag of tuples with a fixed schema, stored as a map from the
// tuple encoding to the decoded tuple and its multiplicity. Multiplicities
// are always positive; installing a change batch that would drive a count
// negative is an error (it indicates an incorrect maintenance strategy
// upstream).
//
// A stored tuple is written once, when its row first appears, and never
// again: Scan, Lookup and SortedRows hand out that tuple itself, shared by
// every copy-on-write clone of the table and so by every epoch that still
// holds the row. Callers must treat it as immutable. Its capacity equals
// its length, so appending to it copies.
type Table struct {
	schema relation.Schema
	rows   map[string]storedRow
	card   int64 // total multiplicity (sum of counts)
	// cow marks rows as shared with other Table handles (Clone is
	// copy-on-write at relation granularity): the map must not be mutated
	// through this handle until detach gives it a private copy. Handles are
	// single-writer; the flag needs no lock because sharing handles only
	// ever read the shared map.
	cow bool
	// indexes holds maintained hash indexes keyed by canonical column list
	// (see index.go). Clones start without indexes; they are rebuilt on
	// demand by EnsureIndex. idxMu serializes that lazy build against
	// concurrent probes: parallel executors may evaluate several compute
	// expressions reading the same state table at once, and the first to
	// need an index must not race the others.
	idxMu   sync.RWMutex
	indexes map[string]*hashIndex
}

// storedRow is one distinct tuple of a table: its decoded form and multiplicity.
type storedRow struct {
	tup   relation.Tuple
	count int64
}

// NewTable creates an empty table with the given schema.
func NewTable(schema relation.Schema) *Table {
	return &Table{schema: schema.Clone(), rows: make(map[string]storedRow)}
}

// Schema returns the table's schema.
func (t *Table) Schema() relation.Schema { return t.schema }

// Cardinality returns the total number of rows, counting duplicates.
func (t *Table) Cardinality() int64 { return t.card }

// DistinctCount returns the number of distinct rows.
func (t *Table) DistinctCount() int64 { return int64(len(t.rows)) }

// detach gives the table a private copy of a shared row map before the
// first mutation through this handle. Sibling handles (and the readers
// scanning them) keep the original map untouched — this is what makes a
// cloned epoch immutable while its successor is updated in place.
func (t *Table) detach() {
	if !t.cow {
		return
	}
	rows := make(map[string]storedRow, len(t.rows))
	for k, v := range t.rows {
		rows[k] = v
	}
	t.rows = rows
	t.cow = false
}

// Insert adds count copies of the tuple. Count must be positive. The table
// keeps nothing of tup itself; the caller may reuse or modify it.
func (t *Table) Insert(tup relation.Tuple, count int64) {
	if count <= 0 {
		panic(fmt.Sprintf("storage: Insert with non-positive count %d", count))
	}
	t.insertKey(tup.Encode(), count)
}

// insertKey adds count copies of the row encoded as key. A row new to the
// table stores the tuple decoded from key, whose strings are substrings of
// the key the map holds anyway.
func (t *Table) insertKey(key string, count int64) {
	t.detach()
	r, existed := t.rows[key]
	if !existed {
		r.tup = mustDecode(key)
		t.indexInsert(key, r.tup)
	}
	r.count += count
	t.rows[key] = r
	t.card += count
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
	key := tup.Encode()
	if have := t.rows[key].count; have < count {
		return fmt.Errorf("storage: delete of %d copies of %v but only %d present", count, tup, have)
	}
	t.deleteKey(key, count)
	return nil
}

// deleteKey removes count copies of the row encoded as key; the caller has
// checked that at least count are present.
func (t *Table) deleteKey(key string, count int64) {
	t.detach()
	r := t.rows[key]
	if r.count == count {
		delete(t.rows, key)
		t.indexDelete(key, r.tup)
	} else {
		r.count -= count
		t.rows[key] = r
	}
	t.card -= count
}

// Count returns the multiplicity of the tuple (0 if absent).
func (t *Table) Count(tup relation.Tuple) int64 { return t.rows[tup.Encode()].count }

// Scan calls fn for each distinct row with its multiplicity. Iteration stops
// early if fn returns false. Iteration order is unspecified. The tuple is
// the stored one (see Table): fn may keep it but must not modify it.
func (t *Table) Scan(fn func(tup relation.Tuple, count int64) bool) {
	for _, r := range t.rows {
		if !fn(r.tup, r.count) {
			return
		}
	}
}

// ScanEncoded is Scan over the rows' Tuple.Encode keys, for callers that
// fingerprint or persist rows and never look inside them.
func (t *Table) ScanEncoded(fn func(key string, count int64) bool) {
	for key, r := range t.rows {
		if !fn(key, r.count) {
			return
		}
	}
}

// SortedRows returns all distinct rows with counts, sorted lexicographically.
// Intended for tests and deterministic output. The tuples are the stored
// ones and must not be modified.
func (t *Table) SortedRows() []CountedTuple {
	out := make([]CountedTuple, 0, len(t.rows))
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

// Clone returns an independent copy of the table in O(1): the row map is
// shared copy-on-write, and whichever handle mutates first detaches onto a
// private copy. An epoch that clones a hundred-relation warehouse therefore
// pays only for the relations its update window actually touches.
// Maintained indexes are not shared; the clone starts without any.
func (t *Table) Clone() *Table {
	t.cow = true
	return &Table{schema: t.schema.Clone(), rows: t.rows, card: t.card, cow: true}
}

// Equal reports whether two tables hold the same bag of rows.
func (t *Table) Equal(o *Table) bool {
	if len(t.rows) != len(o.rows) || t.card != o.card {
		return false
	}
	for k, v := range t.rows {
		if o.rows[k].count != v.count {
			return false
		}
	}
	return true
}

// ApproxEqual reports whether two tables hold the same bag of rows, with
// float values compared under relative tolerance tol. Aggregates maintained
// incrementally accumulate floating-point sums in a different order than a
// from-scratch recomputation, so verification of views with float aggregates
// needs tolerant comparison; all other kinds compare exactly.
func (t *Table) ApproxEqual(o *Table, tol float64) bool {
	if t.card != o.card || len(t.rows) != len(o.rows) {
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
	var err error
	d.ScanEncoded(func(key string, count int64) bool {
		if have := t.rows[key].count; count < 0 && have < -count {
			err = fmt.Errorf("storage: delta deletes %d copies of %v but only %d present", -count, mustDecode(key), have)
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	// The table adopts the delta's key strings as its own, and decodes a
	// tuple only for a row it does not hold yet.
	d.ScanEncoded(func(key string, count int64) bool {
		if count > 0 {
			t.insertKey(key, count)
		} else {
			t.deleteKey(key, -count)
		}
		return true
	})
	return nil
}

// Clear removes every row. Maintained indexes are emptied but kept. A
// shared (cloned) row map is simply abandoned to its other handles.
func (t *Table) Clear() {
	t.rows = make(map[string]storedRow)
	t.cow = false
	t.card = 0
	for _, ix := range t.indexes {
		ix.buckets = make(map[string]map[string]struct{})
	}
}

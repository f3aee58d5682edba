package storage

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cowmap"
	"repro/internal/relation"
)

// Hash indexes on counted tables. The engine's default execution model
// scans every term operand once per term (the paper's linear work metric).
// A maintained hash index trades that scan for probes: it is kept current
// by Insert/Delete (install pays the maintenance), and equi-join terms can
// look up matching rows directly. This is the storage-representation lever
// the paper's related work points at ([JNSS97], [KR98]): it does not change
// which strategy is best so much as it changes what each expression costs —
// the engine exposes it behind an option precisely so the deviation from
// the linear metric can be measured (see BenchmarkIndexedExecution).

// hashIndex maps an encoded key (projection of the row on the index
// columns) to the encodings of rows carrying that key.
type hashIndex struct {
	cols []int
	// buckets maps key encoding → row encoding → struct{} (set semantics:
	// multiplicity lives in the table's rows).
	buckets map[string]map[string]struct{}
}

// indexName canonicalizes a column list.
func indexName(cols []int) string {
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = fmt.Sprint(c)
	}
	return strings.Join(parts, ",")
}

// keyOf projects an encoded row onto the index columns.
func (ix *hashIndex) keyOf(tup relation.Tuple) string {
	return tup.Project(ix.cols).Encode()
}

func (ix *hashIndex) add(rowEnc string, tup relation.Tuple) {
	key := ix.keyOf(tup)
	b := ix.buckets[key]
	if b == nil {
		b = make(map[string]struct{})
		ix.buckets[key] = b
	}
	b[rowEnc] = struct{}{}
}

func (ix *hashIndex) remove(rowEnc string, tup relation.Tuple) {
	key := ix.keyOf(tup)
	if b := ix.buckets[key]; b != nil {
		delete(b, rowEnc)
		if len(b) == 0 {
			delete(ix.buckets, key)
		}
	}
}

// EnsureIndex builds (or returns) a maintained hash index on the given
// column positions. Columns must be valid and non-empty; the column list is
// canonicalized by sorting. Safe to call from concurrent readers: the lazy
// build is serialized under the table's index lock.
func (t *Table) EnsureIndex(cols []int) error {
	if len(cols) == 0 {
		return fmt.Errorf("storage: empty index column list")
	}
	sorted := append([]int(nil), cols...)
	sort.Ints(sorted)
	for i, c := range sorted {
		if c < 0 || c >= len(t.schema) {
			return fmt.Errorf("storage: index column %d out of range (width %d)", c, len(t.schema))
		}
		if i > 0 && sorted[i-1] == c {
			return fmt.Errorf("storage: duplicate index column %d", c)
		}
	}
	name := indexName(sorted)
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	if t.indexes == nil {
		t.indexes = make(map[string]*hashIndex)
	}
	if _, ok := t.indexes[name]; ok {
		return nil
	}
	ix := &hashIndex{cols: sorted, buckets: make(map[string]map[string]struct{})}
	t.rows.Scan(func(_ uint64, key string, r storedRow) bool {
		ix.add(key, r.tup)
		return true
	})
	t.indexes[name] = ix
	return nil
}

// HasIndex reports whether a maintained index exists on the columns.
func (t *Table) HasIndex(cols []int) bool {
	sorted := append([]int(nil), cols...)
	sort.Ints(sorted)
	t.idxMu.RLock()
	defer t.idxMu.RUnlock()
	_, ok := t.indexes[indexName(sorted)]
	return ok
}

// IndexCount returns the number of maintained indexes.
func (t *Table) IndexCount() int {
	t.idxMu.RLock()
	defer t.idxMu.RUnlock()
	return len(t.indexes)
}

// Lookup streams the rows whose projection on cols equals key, with their
// multiplicities. The columns must carry a maintained index (HasIndex);
// otherwise an error is returned. key must follow the *sorted* column
// order (the canonical order EnsureIndex uses). The tuples are the stored
// ones (see Table) and must not be modified.
func (t *Table) Lookup(cols []int, key relation.Tuple, fn func(relation.Tuple, int64) bool) error {
	sorted := append([]int(nil), cols...)
	sort.Ints(sorted)
	t.idxMu.RLock()
	ix, ok := t.indexes[indexName(sorted)]
	t.idxMu.RUnlock()
	if !ok {
		return fmt.Errorf("storage: no index on columns %v", cols)
	}
	for rowEnc := range ix.buckets[key.Encode()] {
		if r, _ := t.rows.Get(cowmap.Hash(rowEnc), rowEnc); !fn(r.tup, r.count) {
			return nil
		}
	}
	return nil
}

// indexInsert/indexDelete keep all indexes current; Insert calls the one
// when a row first appears, Delete the other when its last copy goes.
func (t *Table) indexInsert(rowEnc string, tup relation.Tuple) {
	for _, ix := range t.indexes {
		ix.add(rowEnc, tup)
	}
}

func (t *Table) indexDelete(rowEnc string, tup relation.Tuple) {
	for _, ix := range t.indexes {
		ix.remove(rowEnc, tup)
	}
}

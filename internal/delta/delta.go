// Package delta implements change sets ("delta relations") for warehouse
// views. A Delta holds inserted tuples ("plus tuples") and deleted tuples
// ("minus tuples") as signed multiplicities, following the counting
// representation of [GL95]. For aggregate views, the package also provides
// GroupPartials — per-group partial aggregate changes that are accumulated
// across the Comp expressions of a strategy and finalized into plus/minus
// tuples against the pre-install view state.
package delta

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"repro/internal/cowmap"
	"repro/internal/relation"
)

// Delta is a set of signed tuple changes: positive counts are insertions
// (plus tuples), negative counts are deletions (minus tuples). Entries with
// count zero are removed eagerly, so Size is always the number of tuples
// that actually change.
//
// A delta is written by one goroutine at a time and not while another reads
// it; reads may run together.
type Delta struct {
	schema relation.Schema
	rows   map[string]int64
	plus   int64 // total multiplicity of plus tuples
	minus  int64 // total multiplicity of minus tuples (as a positive number)

	// decoded is rows with every tuple decoded, made by the first Scan
	// since the last change and read by every Scan after it — a staged delta
	// is scanned once by each Comp over its view and once more by its
	// install. decodeMu orders the readers that would make it together.
	decodeMu sync.Mutex
	decoded  []decodedRow
}

// decodedRow is one entry of rows with its tuple beside it. The tuple is
// shared by everyone who scans the delta and by the table that installs it.
type decodedRow struct {
	key   string
	tup   relation.Tuple
	count int64
}

// New creates an empty delta over the given schema.
func New(schema relation.Schema) *Delta {
	return &Delta{schema: schema.Clone(), rows: make(map[string]int64)}
}

// Schema returns the delta's schema.
func (d *Delta) Schema() relation.Schema { return d.schema }

// Add records count signed copies of the tuple (positive = insert, negative
// = delete). Adding zero is a no-op. Opposite-signed additions cancel.
func (d *Delta) Add(tup relation.Tuple, count int64) {
	if count == 0 {
		return
	}
	key := tup.Encode()
	d.addKey(key, count)
}

// AddEncoded is Add for callers that already hold the tuple's Encode key,
// sparing a second encoding on the sink path. key must be a valid
// Tuple.Encode result over the delta's schema; Scan decodes it back.
func (d *Delta) AddEncoded(key string, count int64) {
	if count == 0 {
		return
	}
	d.addKey(key, count)
}

func (d *Delta) addKey(key string, count int64) {
	d.decoded = nil
	old := d.rows[key]
	nw := old + count
	if nw == 0 {
		delete(d.rows, key)
	} else {
		d.rows[key] = nw
	}
	// Update plus/minus totals from the transition old -> nw.
	d.plus += pos(nw) - pos(old)
	d.minus += pos(-nw) - pos(-old)
}

func pos(v int64) int64 {
	if v > 0 {
		return v
	}
	return 0
}

// Merge folds other into d. Schemas must match.
func (d *Delta) Merge(other *Delta) {
	if !d.schema.Equal(other.schema) {
		panic(fmt.Sprintf("delta: merge of incompatible schemas [%s] and [%s]", d.schema, other.schema))
	}
	for k, v := range other.rows {
		d.addKey(k, v)
	}
}

// Scan calls fn for each changed tuple with its signed multiplicity.
// Iteration stops early if fn returns false. Order is unspecified. The
// tuples are decoded by the first Scan after a change and shared by the
// later ones, so fn must not write to them.
func (d *Delta) Scan(fn func(tup relation.Tuple, count int64) bool) {
	d.decodeMu.Lock()
	if d.decoded == nil && len(d.rows) > 0 {
		d.decoded = make([]decodedRow, 0, len(d.rows))
		for key, count := range d.rows {
			tup, err := relation.DecodeTuple(key)
			if err != nil {
				d.decodeMu.Unlock()
				panic(fmt.Sprintf("delta: corrupt encoding: %v", err))
			}
			d.decoded = append(d.decoded, decodedRow{key, tup, count})
		}
	}
	decoded := d.decoded
	d.decodeMu.Unlock()
	for _, r := range decoded {
		if !fn(r.tup, r.count) {
			return
		}
	}
}

// ScanKeyed is ScanEncoded for a caller that will want some of the tuples:
// fn also gets each key's tuple when a Scan has decoded the delta since its
// last change, and nil when none has — ScanKeyed decodes nothing itself. The
// tuple is the one Scan hands out, read-only.
func (d *Delta) ScanKeyed(fn func(key string, tup relation.Tuple, count int64) bool) {
	d.decodeMu.Lock()
	decoded := d.decoded
	d.decodeMu.Unlock()
	if decoded == nil {
		d.ScanEncoded(func(key string, count int64) bool { return fn(key, nil, count) })
		return
	}
	for _, r := range decoded {
		if !fn(r.key, r.tup, r.count) {
			return
		}
	}
}

// Size returns the total multiplicity of changed tuples, |plus| + |minus|.
// This is the |δV| of the paper's linear work metric: the number of rows an
// install (or a scan of the delta as a term operand) must touch.
func (d *Delta) Size() int64 { return d.plus + d.minus }

// PlusCount returns the total multiplicity of inserted tuples.
func (d *Delta) PlusCount() int64 { return d.plus }

// MinusCount returns the total multiplicity of deleted tuples.
func (d *Delta) MinusCount() int64 { return d.minus }

// NetGrowth returns |V'| - |V| for the view this delta applies to.
func (d *Delta) NetGrowth() int64 { return d.plus - d.minus }

// Distinct returns the number of distinct changed tuples.
func (d *Delta) Distinct() int { return len(d.rows) }

// IsEmpty reports whether the delta changes nothing.
func (d *Delta) IsEmpty() bool { return len(d.rows) == 0 }

// Clone returns an independent copy, which decodes its rows for itself when
// it is first scanned.
func (d *Delta) Clone() *Delta {
	out := New(d.schema)
	out.plus, out.minus = d.plus, d.minus
	for k, v := range d.rows {
		out.rows[k] = v
	}
	return out
}

// Negate returns a delta that undoes d (plus and minus swapped).
func (d *Delta) Negate() *Delta {
	out := New(d.schema)
	out.plus, out.minus = d.minus, d.plus
	for k, v := range d.rows {
		out.rows[k] = -v
	}
	return out
}

// ScanEncoded calls fn for each changed tuple's encoded key with its signed
// multiplicity, sparing the decode Scan performs. Iteration stops early if
// fn returns false. Order is unspecified.
func (d *Delta) ScanEncoded(fn func(key string, count int64) bool) {
	for key, count := range d.rows {
		if !fn(key, count) {
			return
		}
	}
}

// Digest returns an order-independent fingerprint of the delta's contents:
// the XOR over rows of CRC64(encoded tuple ‖ varint count), the CRC-64/ECMA
// hash/crc64 gives, taken over the key's string in place (cowmap.Hash). Two
// deltas holding the same bag of signed changes digest identically
// regardless of accumulation order, which is what lets the window journal
// compare a replayed step's installed delta against the journaled one across
// execution modes.
func (d *Delta) Digest() uint64 {
	var h uint64
	var buf [binary.MaxVarintLen64]byte
	for key, count := range d.rows {
		n := binary.PutVarint(buf[:], count)
		h ^= cowmap.Extend(cowmap.Hash(key), buf[:n])
	}
	return h
}

// Sorted returns the changes sorted lexicographically by tuple, for
// deterministic output in tests and tools.
func (d *Delta) Sorted() []Change {
	out := make([]Change, 0, len(d.rows))
	d.Scan(func(tup relation.Tuple, count int64) bool {
		out = append(out, Change{Tuple: tup, Count: count})
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		return relation.CompareTuples(out[i].Tuple, out[j].Tuple) < 0
	})
	return out
}

// Change is one signed tuple change.
type Change struct {
	Tuple relation.Tuple
	Count int64 // positive = insert, negative = delete
}

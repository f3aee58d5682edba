// Package delta implements change sets ("delta relations") for warehouse
// views. A Delta holds inserted tuples ("plus tuples") and deleted tuples
// ("minus tuples") as signed multiplicities, following the counting
// representation of [GL95]. For aggregate views, the package also provides
// GroupPartials — per-group partial aggregate changes that are accumulated
// across the Comp expressions of a strategy and applied to the view's groups
// by its install, which writes each changed group's old and new output rows
// into the view's table; they are the view's plus/minus tuples
// (storage.Table.Apply).
package delta

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/cowmap"
	"repro/internal/relation"
)

// Delta is a set of signed tuple changes: positive counts are insertions
// (plus tuples), negative counts are deletions (minus tuples).
//
// A delta is written, then sealed, then read. Add and AddEncoded append
// changes in arrival order; Seal folds what was appended into the sealed
// run, one row per changed tuple in ascending order of its encoded key
// (Tuple.Encode), equal keys summed, zero counts dropped and every key's
// tuple at hand. Every read walks that run, so a batch folds in one order
// wherever it is read, and reads may run together with no lock. The reads
// that hand out tuples — Scan, ScanEncoded, Sorted and Merge — panic with
// ErrUnsealed on a delta holding appends that no Seal has folded in; the
// counting reads — Size, PlusCount, MinusCount, Distinct, IsEmpty and Digest
// — read a sealed copy, writing nothing. A fresh delta is sealed and empty.
//
// A run is never written in place: Seal and Merge make a new one, so a Clone
// shares its source's run.
type Delta struct {
	schema relation.Schema
	run    []row
	plus   int64 // total multiplicity of plus tuples
	minus  int64 // total multiplicity of minus tuples (as a positive number)
	// tail is what was appended since the last Seal, in arrival order.
	tail []change
}

// change is one append: a tuple's encoded key and a signed count.
type change struct {
	key   string
	count int64
}

// row is one row of a run: a change and its tuple, which Seal decodes from
// the key. A run's tuples are shared by everyone who scans the delta and by
// the table that installs it.
type row struct {
	change
	tup relation.Tuple
}

// ErrUnsealed is what a read that hands out tuples panics with when the
// delta holds appends that no Seal has folded in.
var ErrUnsealed = errors.New("delta: read of a delta with appends not sealed")

// slabRows is how many minus tuples Seal decodes into one slab of values.
// A plus tuple gets an allocation of its own: a table adopts it, and a slab
// would stay allocated while any of its rows lived.
const slabRows = 256

// New creates an empty delta over the given schema.
func New(schema relation.Schema) *Delta {
	return &Delta{schema: schema.Clone()}
}

// Schema returns the delta's schema.
func (d *Delta) Schema() relation.Schema { return d.schema }

// Add appends count signed copies of the tuple (positive = insert, negative
// = delete). Adding zero is a no-op. Opposite-signed additions cancel when
// the delta is sealed.
func (d *Delta) Add(tup relation.Tuple, count int64) { d.AddEncoded(tup.Encode(), count) }

// AddEncoded is Add for callers that already hold the tuple's Encode key,
// sparing a second encoding on the sink path. key must be a Tuple.Encode
// result over the delta's schema, which Seal checks.
func (d *Delta) AddEncoded(key string, count int64) {
	if count != 0 {
		d.tail = append(d.tail, change{key, count})
	}
}

// Seal folds the changes appended since the last Seal into the run: it
// sorts them by key, sums equal keys, drops zero counts, decodes the tuples
// left and merges their rows into the run. Sealing a sealed delta does
// nothing. A key that is not a row of the schema's width is an error, which
// discards the appended changes and leaves the run as it was.
func (d *Delta) Seal() error {
	if len(d.tail) == 0 {
		return nil
	}
	tail := d.tail
	d.tail = nil
	slices.SortFunc(tail, func(a, b change) int { return strings.Compare(a.key, b.key) })
	width := len(d.schema)
	fresh := make([]row, 0, len(tail))
	minus := 0 // minus rows, whose tuples decode into slabs
	for i := 0; i < len(tail); {
		c := tail[i]
		for i++; i < len(tail) && tail[i].key == c.key; i++ {
			c.count += tail[i].count
		}
		if c.count == 0 {
			continue
		}
		if n, err := relation.Arity(c.key); err != nil || n != width {
			return fmt.Errorf("delta: %q is not the encoding of a row of %d values (%d, %v)", c.key, width, n, err)
		}
		if c.count < 0 {
			minus++
		}
		fresh = append(fresh, row{change: c})
	}
	if 2*len(fresh) < cap(fresh) {
		fresh = slices.Clone(fresh)
	}
	var slab []relation.Value
	for i := range fresh {
		switch r := &fresh[i]; {
		case r.count > 0:
			r.tup = make(relation.Tuple, width)
		case len(slab) == 0:
			slab = make([]relation.Value, min(slabRows, minus)*width)
			fallthrough
		default:
			r.tup, slab, minus = slab[:width:width], slab[width:], minus-1
		}
		relation.DecodeInto(fresh[i].tup, fresh[i].key)
	}
	d.merge(fresh)
	return nil
}

// merge makes d's run the rows of its run and of b, another run: one linear
// pass, equal keys summed and zero sums dropped, a key keeping the tuple of
// d's row; either run is kept whole when the other is empty. It writes
// neither run, and recounts the totals.
func (d *Delta) merge(b []row) {
	a, out := d.run, b
	if len(b) == 0 {
		out = a
	} else if len(a) > 0 {
		out = make([]row, 0, len(a)+len(b))
		for len(a) > 0 && len(b) > 0 {
			switch c := strings.Compare(a[0].key, b[0].key); {
			case c < 0:
				out, a = append(out, a[0]), a[1:]
			case c > 0:
				out, b = append(out, b[0]), b[1:]
			default:
				if r := a[0]; r.count+b[0].count != 0 {
					r.count += b[0].count
					out = append(out, r)
				}
				a, b = a[1:], b[1:]
			}
		}
		out = append(append(out, a...), b...)
	}
	d.run, d.plus, d.minus = out, 0, 0
	for _, r := range out {
		if r.count > 0 {
			d.plus += r.count
		} else {
			d.minus -= r.count
		}
	}
}

// folded returns d, or when d holds appends no Seal has folded in, a sealed
// copy of d: what the counting reads read. It writes nothing of d.
func (d *Delta) folded() *Delta {
	if len(d.tail) == 0 {
		return d
	}
	f := &Delta{schema: d.schema, run: d.run, tail: slices.Clone(d.tail)}
	_ = f.Seal() // a refused key leaves f's run d's
	return f
}

// sealed returns the run, or panics with ErrUnsealed.
func (d *Delta) sealed() []row {
	if len(d.tail) > 0 {
		panic(ErrUnsealed)
	}
	return d.run
}

// Merge folds other into d, both sealed: one linear merge of their runs.
// Schemas must match.
func (d *Delta) Merge(other *Delta) {
	if !d.schema.Equal(other.schema) {
		panic(fmt.Sprintf("delta: merge of incompatible schemas [%s] and [%s]", d.schema, other.schema))
	}
	d.sealed()
	d.merge(other.sealed())
}

// Scan calls fn for each changed tuple with its signed multiplicity, in
// ascending order of the tuple's encoded key. Iteration stops early if fn
// returns false. The tuples are the run's, so fn must not write to them.
func (d *Delta) Scan(fn func(tup relation.Tuple, count int64) bool) {
	for _, r := range d.sealed() {
		if !fn(r.tup, r.count) {
			return
		}
	}
}

// ScanEncoded is Scan handing each changed tuple's encoded key beside its
// tuple.
func (d *Delta) ScanEncoded(fn func(key string, tup relation.Tuple, count int64) bool) {
	for _, r := range d.sealed() {
		if !fn(r.key, r.tup, r.count) {
			return
		}
	}
}

// Size returns the total multiplicity of changed tuples, |plus| + |minus|.
// This is the |δV| of the paper's linear work metric: the number of rows an
// install (or a scan of the delta as a term operand) must touch.
func (d *Delta) Size() int64 { f := d.folded(); return f.plus + f.minus }

// PlusCount returns the total multiplicity of inserted tuples.
func (d *Delta) PlusCount() int64 { return d.folded().plus }

// MinusCount returns the total multiplicity of deleted tuples.
func (d *Delta) MinusCount() int64 { return d.folded().minus }

// Distinct returns the number of distinct changed tuples.
func (d *Delta) Distinct() int { return len(d.folded().run) }

// IsEmpty reports whether the delta changes nothing.
func (d *Delta) IsEmpty() bool { return d.Distinct() == 0 }

// Clone returns a copy of d that shares its sealed run; what was appended
// since the last Seal is copied.
func (d *Delta) Clone() *Delta {
	out := *d
	out.tail = slices.Clone(d.tail)
	return &out
}

// Digest returns an order-independent fingerprint of the delta's contents:
// the XOR over rows of CRC64(encoded tuple ‖ varint count), the CRC-64/ECMA
// hash/crc64 gives, taken over the key's string in place (cowmap.Hash). Two
// deltas holding the same bag of signed changes digest identically, which is
// what lets the window journal compare a replayed step's installed delta
// against the journaled one across execution modes.
func (d *Delta) Digest() uint64 {
	var h uint64
	var buf [binary.MaxVarintLen64]byte
	for _, r := range d.folded().run {
		n := binary.PutVarint(buf[:], r.count)
		h ^= cowmap.Extend(cowmap.Hash(r.key), buf[:n])
	}
	return h
}

// Sorted returns the changes sorted lexicographically by tuple, for
// deterministic output in tests and tools.
func (d *Delta) Sorted() []Change {
	out := make([]Change, 0, d.Distinct())
	d.Scan(func(tup relation.Tuple, count int64) bool {
		out = append(out, Change{Tuple: tup, Count: count})
		return true
	})
	slices.SortFunc(out, func(a, b Change) int { return relation.CompareTuples(a.Tuple, b.Tuple) })
	return out
}

// Change is one signed tuple change.
type Change struct {
	Tuple relation.Tuple
	Count int64 // positive = insert, negative = delete
}

package storage

import (
	"fmt"

	"repro/internal/cowmap"
	"repro/internal/delta"
	"repro/internal/relation"
)

// slabRows is how many rows a bulk build decodes together, whatever the
// size of the batches they arrive in: their keys are substrings of one
// string and their tuples slices of one slab of values. It bounds what one
// surviving row keeps allocated (see Builder).
const slabRows = 256

// Builder fills a table in bulk from stored rows: core's LoadBase (the
// facade's Load, tpcd's population) and snapshot.Read build through it. Insert adds one row as Done adds
// each row to a table that already holds rows, and a change batch
// (ApplyDelta) and a full evaluation's output (InsertEncoded) add rows the
// same way.
//
// A row is added as its encoding (Tuple.Encode) and count, and is
// validated then. Rows are gathered slabRows at a time into a chunk: one
// string holds the chunk's encodings end to end and each row's key is a
// substring of it; one slab of rows × width values holds its tuples, each a
// slice of the slab whose capacity is its length, as a stored tuple's must
// be (see Table). Each row is hashed once, by the CRC of its key, and never
// re-encoded. Done places the rows: into an empty table all at once, its
// row map filled with its directory sized once and its buckets made in one
// allocation (cowmap.Map.Fill), and into any other row by row.
//
// Retention. A chunk's string and slab stay allocated while any row of the
// chunk lives, in this handle or in any clone of it, and the row map's
// bucket arrays while any bucket of the build does: deleting a row frees
// none of it until the last row of its chunk goes. A table therefore holds
// at most the bytes of its bulk builds plus those of the rows inserted
// since, however many rows it has deleted (TestBulkBuildRetention).
type Builder struct {
	t *Table
	chunker
	counts []int64 // each row's count, in order
}

// Build starts a bulk build of about n rows into the table.
func (t *Table) Build(n int) *Builder {
	return &Builder{t: t, chunker: newChunker(len(t.schema), n), counts: make([]int64, 0, n)}
}

// Add adds count copies of the row whose Tuple.Encode is enc, which the
// builder copies. It refuses an encoding that does not decode to a tuple of
// the table's width, and a count that is not positive; a refused row adds
// nothing.
func (b *Builder) Add(enc []byte, count int64) error {
	if count <= 0 {
		return fmt.Errorf("storage: non-positive row count %d", count)
	}
	if err := b.add(enc); err != nil {
		return err
	}
	b.counts = append(b.counts, count)
	return nil
}

// Done places every row added into the table. The builder is spent.
func (b *Builder) Done() {
	b.close()
	t := b.t
	if t.rows.Len() > 0 || t.placed > 0 || len(t.indexes) > 0 {
		t.rows.Grow(len(b.hashes))
		for i, h := range b.hashes {
			key, tup := b.row(i)
			t.insertKey(h, key, tup, b.counts[i], nil)
		}
		return
	}
	t.rows.Fill(b.hashes, b.key, func(i int, r *storedRow) {
		h := b.hashes[i]
		if r.count == 0 {
			_, r.tup = b.row(i)
		} else {
			t.digest ^= rowDigest(h, r.count)
		}
		r.count += b.counts[i]
		t.digest ^= rowDigest(h, r.count)
		t.card += b.counts[i]
	})
}

// AggBuilder is Builder for a summary table: it fills the table with groups
// as ScanGroups hands them out — key, support and accumulators — each
// placed as its output row, which carries it, and is the one path by which
// groups enter a summary table but a change batch (Apply). Each group's
// output row is encoded as it is added and gathered by a Builder of the
// table, whose retention holds: the row's key and tuple come from its
// chunks, and its group and accumulators from one array each of the build's.
type AggBuilder struct {
	rows     *Builder
	enc      []byte
	supports []int64
	accums   []delta.Accum // every group's, len(specs) each, in order
}

// BuildGroups starts a bulk build of about n groups into the summary table.
func (t *Table) BuildGroups(n int) *AggBuilder {
	return &AggBuilder{rows: t.Build(n), supports: make([]int64, 0, n), accums: make([]delta.Accum, 0, n*len(t.specs))}
}

// Add adds the group whose key encodes as key, with its support and one
// accumulator per spec, which the table takes over. A group already built
// or held is replaced. It refuses a key of the wrong width, a support that
// is not positive and accumulators that do not match the specs or hold a
// negative value count; a refused group adds nothing.
func (b *AggBuilder) Add(key []byte, support int64, accums []*delta.Accum) error {
	specs := b.rows.t.specs
	if support <= 0 {
		return fmt.Errorf("storage: non-positive group support %d", support)
	}
	if len(accums) != len(specs) {
		return fmt.Errorf("storage: %d accumulators for %d aggregates", len(accums), len(specs))
	}
	for i, a := range accums {
		if a.Spec() != specs[i] {
			return fmt.Errorf("storage: accumulator %d has spec %+v, want %+v", i, a.Spec(), specs[i])
		}
		if !a.Valid() {
			return fmt.Errorf("storage: accumulator %d has negative value counts", i)
		}
	}
	first := len(b.accums)
	for _, a := range accums {
		b.accums = append(b.accums, *a)
	}
	// A key of the wrong width makes a row of the wrong width.
	b.enc = appendRow(b.enc[:0], key, support, b.accums[first:])
	if err := b.rows.add(b.enc); err != nil {
		b.accums = b.accums[:first]
		return err
	}
	b.supports = append(b.supports, support)
	return nil
}

// Done places every group added into the table as its output row, group by
// group: a group already held or built gives up its row first, so a key
// given twice keeps its last state. The builder is spent.
func (b *AggBuilder) Done() {
	rb := b.rows
	rb.close()
	t, k := rb.t, len(rb.t.specs)
	t.rows.Grow(len(rb.hashes))
	groups := make([]group, len(rb.hashes))
	for i, hash := range rb.hashes {
		row, tup := rb.row(i)
		if old, r := t.groupRow(row[:prefixLen(row, t.placed)]); r.group != nil {
			t.deleteKey(cowmap.Hash(old), old, 1, 1)
		}
		groups[i] = group{support: b.supports[i], accums: b.accums[i*k : (i+1)*k : (i+1)*k]}
		t.insertKey(hash, row, tup, 1, &groups[i])
	}
}

// chunker gathers row encodings and decodes them slabRows at a time; see
// Builder.
type chunker struct {
	width  int
	open   []byte   // the open chunk's encodings, end to end
	ends   []int    // where each row's encoding ends in its chunk's string
	hashes []uint64 // each row's CRC, once its chunk is closed
	chunks []chunk
}

// chunk is up to slabRows decoded rows: their keys end to end, and their
// tuples, width values each.
type chunk struct {
	keys string
	slab []relation.Value
}

func newChunker(width, n int) chunker {
	return chunker{width: width, ends: make([]int, 0, n), hashes: make([]uint64, 0, n)}
}

// add appends a row's encoding to the open chunk, once it has checked that
// the encoding holds width values, and closes the chunk when it is full.
func (c *chunker) add(enc []byte) error {
	if n, err := relation.Arity(enc); err != nil {
		return fmt.Errorf("storage: corrupt row encoding: %w", err)
	} else if n != c.width {
		return fmt.Errorf("storage: a row of %d values in a table of width %d", n, c.width)
	}
	c.open = append(c.open, enc...)
	c.ends = append(c.ends, len(c.open))
	if len(c.ends)%slabRows == 0 {
		c.close()
	}
	return nil
}

// close decodes the open chunk, if it holds rows, into a string and a slab
// of its own, and hashes its keys.
func (c *chunker) close() {
	first := len(c.chunks) * slabRows
	rows := len(c.ends) - first
	if rows == 0 {
		return
	}
	ch := chunk{keys: string(c.open), slab: make([]relation.Value, rows*c.width)}
	c.chunks = append(c.chunks, ch)
	c.open = c.open[:0]
	for i := first; i < len(c.ends); i++ {
		key, tup := c.row(i)
		relation.DecodeInto(tup, key)
		c.hashes = append(c.hashes, cowmap.Hash(key))
	}
}

// row returns row i's key and tuple, once its chunk is closed.
func (c *chunker) row(i int) (string, relation.Tuple) {
	ch, j := &c.chunks[i/slabRows], i%slabRows
	start := 0
	if j > 0 {
		start = c.ends[i-1]
	}
	return ch.keys[start:c.ends[i]], ch.slab[j*c.width : (j+1)*c.width : (j+1)*c.width]
}

// key returns row i's key, once its chunk is closed.
func (c *chunker) key(i int) string {
	key, _ := c.row(i)
	return key
}

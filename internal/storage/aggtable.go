package storage

import (
	"fmt"

	"repro/internal/cowmap"
	"repro/internal/delta"
	"repro/internal/relation"
)

// AggTable materializes an aggregate (summary) view: one output row per
// group, backed by incremental accumulators so that batches of insertions
// and deletions can be installed without recomputing the view.
//
// The output schema is the grouping columns followed by one column per
// aggregate spec.
type AggTable struct {
	groupSchema relation.Schema
	specs       []delta.AggSpec
	outSchema   relation.Schema
	// groups maps the encoded group key to the group's state, copy-on-write
	// like Table.rows. An entry shared with another handle is never
	// modified: the first change to a group through this handle clones the
	// entry (see mutable).
	groups cowmap.Map[*groupEntry]
	// digest is the XOR over groups of groupEntry.digest: the table's term
	// of the warehouse state digest, kept current as output rows change.
	digest uint64
}

// groupEntry is one group's state. group is the decoded group key, written
// once when the entry is made and shared, read-only, by its clones.
type groupEntry struct {
	// owner is the token of the handle that made the entry; only while that
	// handle still has it may the entry be modified in place.
	owner   cowmap.Token
	group   relation.Tuple
	support int64
	accums  []*delta.Accum
	// crc is the CRC of the encoding of the group's current output row.
	crc uint64
}

// digest is the entry's term of the table digest: its row, count 1.
func (e *groupEntry) digest() uint64 { return rowDigest(e.crc, 1) }

// NewAggTable creates an empty aggregate table. aggNames names the aggregate
// output columns (len must equal len(specs)).
func NewAggTable(groupSchema relation.Schema, specs []delta.AggSpec, aggNames []string) *AggTable {
	if len(aggNames) != len(specs) {
		panic(fmt.Sprintf("storage: %d aggregate names for %d specs", len(aggNames), len(specs)))
	}
	out := groupSchema.Clone()
	for i, s := range specs {
		out = append(out, relation.Column{Name: aggNames[i], Kind: s.OutputKind()})
	}
	return &AggTable{
		groupSchema: groupSchema.Clone(),
		specs:       append([]delta.AggSpec(nil), specs...),
		outSchema:   out,
	}
}

// Empty returns an empty table of t's group schema, specs and output
// schema: a store to build a replacement for t in.
func (t *AggTable) Empty() *AggTable {
	return &AggTable{
		groupSchema: t.groupSchema.Clone(),
		specs:       append([]delta.AggSpec(nil), t.specs...),
		outSchema:   t.outSchema.Clone(),
	}
}

// Schema returns the output schema (group columns then aggregate columns).
func (t *AggTable) Schema() relation.Schema { return t.outSchema }

// GroupSchema returns the schema of the grouping columns.
func (t *AggTable) GroupSchema() relation.Schema { return t.groupSchema }

// Specs returns the aggregate specs.
func (t *AggTable) Specs() []delta.AggSpec { return t.specs }

// Cardinality returns the number of groups (= output rows).
func (t *AggTable) Cardinality() int64 { return int64(t.groups.Len()) }

// DistinctCount is Cardinality: every output row is distinct.
func (t *AggTable) DistinctCount() int64 { return t.Cardinality() }

// Digest returns the order-independent fingerprint of the table's output
// rows in O(1); see Table.Digest.
func (t *AggTable) Digest() uint64 { return t.digest }

// CheckDigest recomputes the digest by a scan of every output row and
// reports a running digest that has drifted from it.
func (t *AggTable) CheckDigest() error {
	if want := scanDigest(t.ScanEncoded); t.digest != want {
		return fmt.Errorf("storage: running digest %016x, a scan of the groups gives %016x", t.digest, want)
	}
	return nil
}

// newEntry makes an entry of this handle's own, with its CRC still to be
// sealed once support and accumulators are final.
func (t *AggTable) newEntry(group relation.Tuple, support int64) *groupEntry {
	return &groupEntry{owner: t.groups.Owner(), group: group, support: support, accums: make([]*delta.Accum, len(t.specs))}
}

// seal computes the entry's CRC from its final state: the CRC of the output
// row's encoding — the group key, whose CRC is its stored hash, then the
// aggregate outputs.
func (e *groupEntry) seal(keyHash uint64) {
	var buf [64]byte
	enc := buf[:0]
	for _, a := range e.accums {
		enc = a.Output(e.support).AppendEncoded(enc)
	}
	e.crc = cowmap.Extend(keyHash, enc)
}

// outputs appends the group's aggregate outputs to dst.
func (e *groupEntry) outputs(dst relation.Tuple) relation.Tuple {
	for _, a := range e.accums {
		dst = append(dst, a.Output(e.support))
	}
	return dst
}

// row materializes the output row for a group.
func (e *groupEntry) row() relation.Tuple {
	return e.outputs(append(make(relation.Tuple, 0, len(e.group)+len(e.accums)), e.group...))
}

// Scan calls fn for each output row; every row has multiplicity 1.
func (t *AggTable) Scan(fn func(tup relation.Tuple, count int64) bool) {
	t.groups.Scan(func(_ uint64, _ string, e *groupEntry) bool { return fn(e.row(), 1) })
}

// ScanEncoded is Scan over the output rows' Tuple.Encode keys: the stored
// group key followed by the encoded aggregate outputs.
func (t *AggTable) ScanEncoded(fn func(key string, count int64) bool) {
	var enc []byte
	outs := make(relation.Tuple, 0, len(t.specs))
	t.groups.Scan(func(_ uint64, key string, e *groupEntry) bool {
		outs = e.outputs(outs[:0])
		enc = outs.AppendEncoded(append(enc[:0], key...))
		return fn(string(enc), 1)
	})
}

// SortedRows returns the output rows sorted lexicographically.
func (t *AggTable) SortedRows() []CountedTuple {
	rows := CollectRows(t.groups.Len(), t.Scan)
	SortRows(rows)
	return rows
}

// mutable returns e, the stored entry of a group that exists, as one this
// handle may modify in place: e itself if the handle made it since its last
// Clone, otherwise a clone of it (accumulators included, each O(1)) stored
// in its place. Other handles keep the entry they had.
func (t *AggTable) mutable(hash uint64, groupKey string, e *groupEntry) *groupEntry {
	if e.owner == t.groups.Owner() {
		return e
	}
	ne := t.newEntry(e.group, e.support)
	ne.crc = e.crc
	for i, a := range e.accums {
		ne.accums[i] = a.Clone()
	}
	slot, _ := t.groups.Ref(hash, groupKey)
	*slot = ne
	return ne
}

// Apply installs the partials and returns what it installed: the number of
// output rows that went or came — a changed group's old row and its new one
// — and their digest (delta.Delta.Digest), with each row's count, -1 for an
// old row and 1 for a new one. A d that is not nil gets those rows appended
// (the delta's Seal is the caller's); a nil d builds nothing. It checks every
// group before it changes any: a group whose support would go negative, or a
// surviving group one of whose MIN/MAX value counts would, is refused with
// the table and d unchanged. Then one pass over the groups finds each once
// and folds its partial once.
func (t *AggTable) Apply(p *delta.GroupPartials, d *delta.Delta) (rows int64, digest uint64, err error) {
	type change struct {
		hash uint64
		key  string
		gp   *delta.GroupPartial
		old  *groupEntry // nil for a group the table does not hold
	}
	changes := make([]change, 0, p.GroupCount())
	fresh := 0
	p.Scan(func(groupKey string, gp *delta.GroupPartial) bool {
		c := change{hash: cowmap.Hash(groupKey), key: groupKey, gp: gp}
		support := gp.Support
		if c.old, _ = t.groups.Get(c.hash, groupKey); c.old != nil {
			support += c.old.support
		} else {
			fresh++
		}
		if support < 0 {
			err = fmt.Errorf("storage: group %v support would go negative (%d)", mustDecode(groupKey), support)
			return false
		}
		for i, a := range gp.Accums {
			// A group that goes is not checked: its accumulators go with it.
			if support > 0 && (c.old == nil && !a.Valid() || c.old != nil && !c.old.accums[i].CanFold(a)) {
				err = fmt.Errorf("storage: group %v aggregate %d would delete an absent value", mustDecode(groupKey), i)
				return false
			}
		}
		changes = append(changes, c)
		return true
	})
	if err != nil {
		return 0, 0, err
	}
	t.groups.Grow(fresh)
	// outs holds a changed group's outputs before its fold, then after it.
	outs := make(relation.Tuple, 2*len(t.specs))
	for _, c := range changes {
		switch old := c.old; {
		case old == nil && c.gp.Support == 0:
		case old == nil:
			e := t.newEntry(mustDecode(c.key), c.gp.Support)
			for i, a := range c.gp.Accums {
				e.accums[i] = a.Clone()
			}
			t.put(c.hash, c.key, e)
			rows, digest = rows+1, digest^e.digest()
			addRow(d, c.key, e.outputs(outs[:0]), 1)
		case old.support+c.gp.Support == 0:
			t.groups.Delete(c.hash, c.key)
			t.digest ^= old.digest()
			rows, digest = rows+1, digest^rowDigest(old.crc, -1)
			addRow(d, c.key, old.outputs(outs[:0]), -1)
		default:
			e := t.mutable(c.hash, c.key, old)
			was, crc := e.outputs(outs[:0]), e.crc
			e.support += c.gp.Support
			for i, a := range c.gp.Accums {
				e.accums[i].Fold(a)
			}
			e.seal(c.hash)
			t.digest ^= rowDigest(crc, 1) ^ e.digest()
			if now := e.outputs(outs[len(was):len(was)]); relation.CompareTuples(was, now) != 0 {
				rows, digest = rows+2, digest^rowDigest(crc, -1)^e.digest()
				addRow(d, c.key, was, -1)
				addRow(d, c.key, now, 1)
			}
		}
	}
	return rows, digest, nil
}

// addRow appends to d, unless it is nil, count copies of the output row of
// the group whose key is groupKey and whose aggregate outputs are outs: its
// encoding is the key's followed by theirs.
func addRow(d *delta.Delta, groupKey string, outs relation.Tuple, count int64) {
	if d != nil {
		d.AddEncoded(string(outs.AppendEncoded([]byte(groupKey))), count)
	}
}

// put stores a finished entry under a key, replacing (and undigesting) any
// entry already there.
func (t *AggTable) put(hash uint64, groupKey string, e *groupEntry) {
	e.seal(hash)
	slot, _ := t.groups.Ref(hash, groupKey)
	if *slot != nil {
		t.digest ^= (*slot).digest()
	}
	*slot = e
	t.digest ^= e.digest()
}

// ScanGroups iterates the raw group state (encoded group key, support
// count, accumulators) — the representation warehouse snapshots persist.
// The accumulators must not be mutated.
func (t *AggTable) ScanGroups(fn func(groupKey string, support int64, accums []*delta.Accum) bool) {
	t.groups.Scan(func(_ uint64, key string, e *groupEntry) bool { return fn(key, e.support, e.accums) })
}

// Clone returns an independent copy of the table in O(1): the groups and
// their entries are shared copy-on-write, and from here on either handle
// clones a group's entry the first time it changes that group. See
// Table.Clone.
func (t *AggTable) Clone() *AggTable {
	c := t.Empty()
	c.groups, c.digest = t.groups.Clone(), t.digest
	return c
}

package storage

import (
	"fmt"
	"sort"

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
	// digest is rowDigest of the group's current output row (count 1).
	digest uint64
}

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

// Schema returns the output schema (group columns then aggregate columns).
func (t *AggTable) Schema() relation.Schema { return t.outSchema }

// GroupSchema returns the schema of the grouping columns.
func (t *AggTable) GroupSchema() relation.Schema { return t.groupSchema }

// Specs returns the aggregate specs.
func (t *AggTable) Specs() []delta.AggSpec { return t.specs }

// Cardinality returns the number of groups (= output rows).
func (t *AggTable) Cardinality() int64 { return int64(t.groups.Len()) }

// Grow sizes the table for n more groups at once; a load whose size is
// known calls it first.
func (t *AggTable) Grow(n int) { t.groups.Grow(n) }

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

// newEntry makes an entry of this handle's own, with its digest still to
// be sealed once support and accumulators are final.
func (t *AggTable) newEntry(group relation.Tuple, support int64) *groupEntry {
	return &groupEntry{owner: t.groups.Owner(), group: group, support: support, accums: make([]*delta.Accum, len(t.specs))}
}

// seal computes the entry's digest from its final state: the CRC of the
// output row's encoding — the group key, whose CRC is its stored hash, then
// the aggregate outputs — and the count 1.
func (e *groupEntry) seal(keyHash uint64) {
	var buf [64]byte
	enc := buf[:0]
	for _, a := range e.accums {
		enc = relation.Tuple{a.Output(e.support)}.AppendEncoded(enc)
	}
	e.digest = rowDigest(cowmap.Extend(keyHash, enc), 1)
}

// row materializes the output row for a group.
func (e *groupEntry) row() relation.Tuple {
	out := make(relation.Tuple, 0, len(e.group)+len(e.accums))
	out = append(out, e.group...)
	for _, a := range e.accums {
		out = append(out, a.Output(e.support))
	}
	return out
}

// Scan calls fn for each output row; every row has multiplicity 1.
func (t *AggTable) Scan(fn func(tup relation.Tuple, count int64) bool) {
	t.groups.Scan(func(_ uint64, _ string, e *groupEntry) bool { return fn(e.row(), 1) })
}

// ScanEncoded is Scan over the output rows' Tuple.Encode keys: the stored
// group key followed by the encoded aggregate outputs.
func (t *AggTable) ScanEncoded(fn func(key string, count int64) bool) {
	var enc []byte
	outs := make(relation.Tuple, len(t.specs))
	t.groups.Scan(func(_ uint64, key string, e *groupEntry) bool {
		for i, a := range e.accums {
			outs[i] = a.Output(e.support)
		}
		enc = outs.AppendEncoded(append(enc[:0], key...))
		return fn(string(enc), 1)
	})
}

// SortedRows returns the output rows sorted lexicographically.
func (t *AggTable) SortedRows() []CountedTuple {
	out := make([]CountedTuple, 0, t.groups.Len())
	t.Scan(func(tup relation.Tuple, count int64) bool {
		out = append(out, CountedTuple{Tuple: tup, Count: count})
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		return relation.CompareTuples(out[i].Tuple, out[j].Tuple) < 0
	})
	return out
}

// FinalizeDelta computes, without mutating the table, the plus/minus tuple
// delta over the output schema that installing the partials would produce:
// for each affected group, a minus tuple for the old row (if the group
// existed) and a plus tuple for the new row (if the group survives). Groups
// whose output row is unchanged contribute nothing.
func (t *AggTable) FinalizeDelta(p *delta.GroupPartials) (*delta.Delta, error) {
	d := delta.New(t.outSchema)
	var err error
	p.Scan(func(groupKey string, gp *delta.GroupPartial) bool {
		old, _ := t.groups.Get(cowmap.Hash(groupKey), groupKey)
		var oldRow, group relation.Tuple
		newSupport := gp.Support
		if old != nil {
			oldRow = old.row()
			group = old.group
			newSupport += old.support
		}
		if newSupport < 0 {
			err = fmt.Errorf("storage: group %s support would go negative (%d)", groupKey, newSupport)
			return false
		}
		var newRow relation.Tuple
		if newSupport > 0 {
			if group == nil {
				group = mustDecode(groupKey)
			}
			// The new row is the group's columns and each aggregate's output
			// after the partial is folded in, which the accumulators answer
			// without folding (Apply does that, once).
			newRow = make(relation.Tuple, 0, len(group)+len(gp.Accums))
			newRow = append(newRow, group...)
			for i, a := range gp.Accums {
				var out relation.Value
				var valid bool
				if old != nil {
					out, valid = old.accums[i].Folded(a, newSupport)
				} else {
					out, valid = a.Output(newSupport), a.Valid()
				}
				if !valid {
					err = fmt.Errorf("storage: group %s aggregate %d would delete absent value", groupKey, i)
					return false
				}
				newRow = append(newRow, out)
			}
		}
		switch {
		case oldRow == nil && newRow == nil:
			// Group neither existed nor survives; nothing changes.
		case oldRow != nil && newRow != nil && relation.CompareTuples(oldRow, newRow) == 0:
			// Offsetting changes left the row identical.
		default:
			if oldRow != nil {
				d.Add(oldRow, -1)
			}
			if newRow != nil {
				d.Add(newRow, 1)
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// mutable returns the entry of a group that exists, as one this handle may
// modify in place: the stored entry if the handle made it since its last
// Clone, otherwise a clone of it (accumulators included, each O(1)) stored
// in its place. Other handles keep the entry they had.
func (t *AggTable) mutable(hash uint64, groupKey string) *groupEntry {
	slot, _ := t.groups.Ref(hash, groupKey)
	if e := *slot; e.owner != t.groups.Owner() {
		ne := t.newEntry(e.group, e.support)
		ne.digest = e.digest
		for i, a := range e.accums {
			ne.accums[i] = a.Clone()
		}
		*slot = ne
	}
	return *slot
}

// Apply installs the partials, mutating the group state. It returns an error
// (leaving the table partially modified only on programmer error upstream)
// if any group's support would go negative.
func (t *AggTable) Apply(p *delta.GroupPartials) error {
	// Validate first so a bad batch does not leave the table half-applied.
	var err error
	fresh := 0
	p.Scan(func(groupKey string, gp *delta.GroupPartial) bool {
		old, _ := t.groups.Get(cowmap.Hash(groupKey), groupKey)
		var have int64
		if old != nil {
			have = old.support
		} else {
			fresh++
		}
		if have+gp.Support < 0 {
			err = fmt.Errorf("storage: group %s support would go negative (%d)", groupKey, have+gp.Support)
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	t.groups.Grow(fresh)
	p.Scan(func(groupKey string, gp *delta.GroupPartial) bool {
		hash := cowmap.Hash(groupKey)
		old, _ := t.groups.Get(hash, groupKey)
		switch {
		case old == nil && gp.Support == 0:
		case old == nil:
			e := t.newEntry(mustDecode(groupKey), gp.Support)
			for i, a := range gp.Accums {
				e.accums[i] = a.Clone()
			}
			t.put(hash, groupKey, e)
		case old.support+gp.Support == 0:
			t.groups.Delete(hash, groupKey)
			t.digest ^= old.digest
		default:
			e := t.mutable(hash, groupKey)
			t.digest ^= e.digest
			e.support += gp.Support
			for i, a := range gp.Accums {
				e.accums[i].Fold(a)
			}
			e.seal(hash)
			t.digest ^= e.digest
		}
		return true
	})
	return nil
}

// put stores a finished entry under a key, replacing (and undigesting) any
// entry already there.
func (t *AggTable) put(hash uint64, groupKey string, e *groupEntry) {
	e.seal(hash)
	slot, _ := t.groups.Ref(hash, groupKey)
	if *slot != nil {
		t.digest ^= (*slot).digest
	}
	*slot = e
	t.digest ^= e.digest
}

// ScanGroups iterates the raw group state (encoded group key, support
// count, accumulators) — the representation warehouse snapshots persist.
// The accumulators must not be mutated.
func (t *AggTable) ScanGroups(fn func(groupKey string, support int64, accums []*delta.Accum) bool) {
	t.groups.Scan(func(_ uint64, key string, e *groupEntry) bool { return fn(key, e.support, e.accums) })
}

// RestoreGroup installs raw group state, replacing any existing group with
// the same key. It is the inverse of ScanGroups, used when loading a
// snapshot; support must be positive and the accumulator count must match
// the table's specs.
func (t *AggTable) RestoreGroup(groupKey string, support int64, accums []*delta.Accum) error {
	if support <= 0 {
		return fmt.Errorf("storage: restoring group with non-positive support %d", support)
	}
	if len(accums) != len(t.specs) {
		return fmt.Errorf("storage: restoring group with %d accumulators, want %d", len(accums), len(t.specs))
	}
	group, err := relation.DecodeTuple(groupKey)
	if err != nil {
		return fmt.Errorf("storage: restoring group with corrupt key: %w", err)
	}
	for i, a := range accums {
		if a.Spec() != t.specs[i] {
			return fmt.Errorf("storage: restored accumulator %d has spec %+v, want %+v", i, a.Spec(), t.specs[i])
		}
		if !a.Valid() {
			return fmt.Errorf("storage: restored accumulator %d has negative value counts", i)
		}
	}
	e := t.newEntry(group, support)
	for i, a := range accums {
		e.accums[i] = a.Clone()
	}
	t.put(cowmap.Hash(groupKey), groupKey, e)
	return nil
}

// Clone returns an independent copy of the table in O(1): the groups and
// their entries are shared copy-on-write, and from here on either handle
// clones a group's entry the first time it changes that group. See
// Table.Clone.
func (t *AggTable) Clone() *AggTable {
	return &AggTable{
		groupSchema: t.groupSchema.Clone(),
		specs:       append([]delta.AggSpec(nil), t.specs...),
		outSchema:   t.outSchema.Clone(),
		groups:      t.groups.Clone(),
		digest:      t.digest,
	}
}

// AsTable converts the current output rows into a plain counted Table, for
// comparisons against recomputation in tests.
func (t *AggTable) AsTable() *Table {
	out := NewTable(t.outSchema)
	out.Grow(t.groups.Len())
	t.Scan(func(tup relation.Tuple, count int64) bool {
		out.Insert(tup, count)
		return true
	})
	return out
}

// Clear removes all groups. Groups shared with clones are simply abandoned
// to the other handles.
func (t *AggTable) Clear() {
	t.groups.Clear()
	t.digest = 0
}

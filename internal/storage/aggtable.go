package storage

import (
	"fmt"

	"repro/internal/cowmap"
	"repro/internal/delta"
	"repro/internal/relation"
)

// AggTable is the group state of an aggregate (summary) view: each group's
// support — the count of the rows it aggregates — and one accumulator per
// aggregate spec, which incremental installs fold batches of insertions and
// deletions into without recomputing the view.
//
// The view's rows are a Table's, as every view's are: one output row per
// group, count 1, its grouping columns followed by one column per aggregate.
// Apply and AggBuilder write that table beside the groups and keep it
// holding exactly the groups' output rows, so that scans, join indexes and
// the digest all come from the table. The table is placed by the grouping
// columns (NewRows): a changed group's old row and new one share a bucket,
// filed under the hash its group is filed under here.
type AggTable struct {
	groupSchema relation.Schema
	specs       []delta.AggSpec
	// groups maps the encoded group key to the group's state, copy-on-write
	// like Table.rows. A stored state is never modified: a change to a
	// group stores a new state, with accumulators of its own, so every
	// other handle keeps the state it had.
	groups cowmap.Map[groupState]
}

// groupState is one group's support and accumulators, one per spec, and
// the encoding of its output row, the key string the table holds it under.
type groupState struct {
	support int64
	accums  []delta.Accum
	row     string
}

// appendRow appends the encoding of the group's output row to dst: its key
// (Tuple.Encode of the grouping values), then each aggregate's output.
func appendRow[S string | []byte](dst []byte, groupKey S, support int64, accums []delta.Accum) []byte {
	dst = append(dst, groupKey...)
	for i := range accums {
		dst = accums[i].Output(support).AppendEncoded(dst)
	}
	return dst
}

// NewAggTable creates an empty aggregate table.
func NewAggTable(groupSchema relation.Schema, specs []delta.AggSpec) *AggTable {
	return &AggTable{groupSchema: groupSchema.Clone(), specs: append([]delta.AggSpec(nil), specs...)}
}

// Empty returns an empty table of t's group schema and specs: a store to
// build a replacement for t in.
func (t *AggTable) Empty() *AggTable { return NewAggTable(t.groupSchema, t.specs) }

// NewRows returns an empty table of the given schema — the grouping columns
// then one column per aggregate — to hold the groups' output rows: its rows
// are placed by the grouping columns (see Table).
func (t *AggTable) NewRows(schema relation.Schema) *Table {
	rows := NewTable(schema)
	rows.placed = len(t.groupSchema)
	return rows
}

// GroupSchema returns the schema of the grouping columns.
func (t *AggTable) GroupSchema() relation.Schema { return t.groupSchema }

// Specs returns the aggregate specs.
func (t *AggTable) Specs() []delta.AggSpec { return t.specs }

// Apply installs the partials into the groups, and into rows — the table
// that holds the groups' output rows (NewRows) — each changed group's old
// row and new one. It returns what it installed: the number of output rows
// that went or came and their digest (delta.Delta.Digest), with each row's
// count, -1 for an old row and 1 for a new one. A d that is not nil gets
// those rows appended (the delta's Seal is the caller's); a nil d builds
// nothing. It checks every group before it changes any: a group whose
// support would go negative, or a surviving group one of whose MIN/MAX value
// counts would, is refused with the table, rows and d unchanged. Then one
// pass over the groups finds each once, folds its partial once and swaps its
// old row for its new one, each new row's key and tuple allocated on its
// own, so that a row keeps nothing of the others alive.
func (t *AggTable) Apply(p *delta.GroupPartials, rows *Table, d *delta.Delta) (n int64, digest uint64, err error) {
	type change struct {
		hash uint64
		key  string
		gp   *delta.GroupPartial
		old  groupState // support 0 for a group the table does not hold
	}
	changes := make([]change, 0, p.GroupCount())
	fresh := 0
	p.Scan(func(groupKey string, gp *delta.GroupPartial) bool {
		c := change{hash: cowmap.Hash(groupKey), key: groupKey, gp: gp}
		c.old, _ = t.groups.Get(c.hash, groupKey)
		held := c.old.support > 0
		if !held {
			fresh++
		}
		support := c.old.support + gp.Support
		if support < 0 {
			err = fmt.Errorf("storage: group %v support would go negative (%d)", mustDecode(groupKey), support)
			return false
		}
		for i, a := range gp.Accums {
			// A group that goes is not checked: its accumulators go with it.
			if support > 0 && (!held && !a.Valid() || held && !c.old.accums[i].CanFold(a)) {
				err = fmt.Errorf("storage: group %v aggregate %d would delete an absent value", mustDecode(groupKey), i)
				return false
			}
		}
		changes = append(changes, c)
		return true
	})
	if err != nil || len(changes) == 0 {
		return 0, 0, err
	}
	t.groups.Grow(fresh)
	rows.rows.Grow(fresh)
	var now []byte // a changed group's output row after its fold
	for _, c := range changes {
		g := groupState{support: c.old.support + c.gp.Support, row: c.old.row}
		if g.support > 0 {
			g.accums = make([]delta.Accum, len(c.gp.Accums))
			for i, a := range c.gp.Accums {
				if c.old.support > 0 {
					g.accums[i] = c.old.accums[i].Clone()
					g.accums[i].Fold(a)
				} else {
					g.accums[i] = a.Clone()
				}
			}
			now = appendRow(now[:0], c.key, g.support, g.accums)
			if g.row == string(now) {
				t.put(c.hash, c.key, g) // the same row: nothing to install
				continue
			}
		}
		if c.old.support > 0 {
			hash := cowmap.Hash(c.old.row)
			rows.deleteKey(hash, c.old.row, 1, 1)
			n, digest = n+1, digest^rowDigest(hash, -1)
			if d != nil {
				d.AddEncoded(c.old.row, -1)
			}
		}
		if g.support == 0 {
			t.groups.Delete(c.hash, c.key)
			continue
		}
		g.row = string(now)
		hash := cowmap.Hash(g.row)
		rows.insertKey(hash, g.row, nil, 1)
		n, digest = n+1, digest^rowDigest(hash, 1)
		if d != nil {
			d.AddEncoded(g.row, 1)
		}
		t.put(c.hash, c.key, g)
	}
	return n, digest, nil
}

// put stores g as the state of the group whose key is groupKey.
func (t *AggTable) put(hash uint64, groupKey string, g groupState) {
	slot, _ := t.groups.Ref(hash, groupKey)
	*slot = g
}

// ScanGroups iterates the raw group state (encoded group key, support
// count, accumulators) — the representation warehouse snapshots persist.
// The accumulators must not be mutated.
func (t *AggTable) ScanGroups(fn func(groupKey string, support int64, accums []delta.Accum) bool) {
	t.groups.Scan(func(_ uint64, key string, g groupState) bool { return fn(key, g.support, g.accums) })
}

// Clone returns an independent copy of the groups in O(1), shared
// copy-on-write: from here on either handle stores a new state for a group
// it changes. See Table.Clone, which the rows take.
func (t *AggTable) Clone() *AggTable {
	c := t.Empty()
	c.groups = t.groups.Clone()
	return c
}

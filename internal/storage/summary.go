package storage

import (
	"fmt"
	"strings"

	"repro/internal/cowmap"
	"repro/internal/delta"
	"repro/internal/relation"
)

// A summary table holds a summary view's rows: one output row per group,
// count 1, its grouping columns then one column per aggregate. Each row's
// entry in the row map carries its group's state (storedRow.group), which
// installs (Apply) fold batches into. The rows are placed by the grouping
// columns, so Apply finds a group by one bucket visit — the row there whose
// key begins with the group key — and swaps it for the group's new row in
// the same bucket. A table with no grouping columns holds at most one row,
// filed by its whole key.

// group is one group's support and accumulators, one per spec. A stored
// group is never modified: a change to a group stores a new one, with
// accumulators of its own, so every other handle keeps the group it had.
type group struct {
	support int64
	accums  []delta.Accum
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

// NewSummaryTable creates an empty summary table of the given schema: the
// first groupBy columns are the grouping columns, and one column follows
// per aggregate of specs.
func NewSummaryTable(schema relation.Schema, groupBy int, specs []delta.AggSpec) *Table {
	if groupBy < 0 || groupBy+len(specs) != len(schema) {
		panic(fmt.Sprintf("storage: a summary table of %d grouping columns and %d aggregates with schema [%s]", groupBy, len(specs), schema))
	}
	t := NewTable(schema)
	t.summary, t.placed, t.specs = true, groupBy, append([]delta.AggSpec(nil), specs...)
	return t
}

// IsSummary reports whether the table is a summary table (NewSummaryTable).
func (t *Table) IsSummary() bool { return t.summary }

// groupRow returns the key and entry of the row of the group whose key
// encodes as groupKey; the entry's group is nil when the table holds no row
// of the group.
func (t *Table) groupRow(groupKey string) (key string, r storedRow) {
	find := func(k string, sr storedRow) bool {
		if !strings.HasPrefix(k, groupKey) {
			return true
		}
		key, r = k, sr
		return false
	}
	if t.placed == 0 { // no grouping columns: the one row there is, if any
		t.rows.Scan(func(_ uint64, k string, sr storedRow) bool { return find(k, sr) })
	} else {
		t.rows.Visit(cowmap.Hash(groupKey), find)
	}
	return key, r
}

// Apply installs the partials into a summary table's groups: each changed
// group's old row goes and its new one, carrying the group's new state,
// comes. It returns what it installed: the number of output rows that went
// or came and their digest (delta.Delta.Digest), with each row's count, -1
// for an old row and 1 for a new one. A d that is not nil gets those rows
// appended (the delta's Seal is the caller's); a nil d builds nothing. It
// checks every group before it changes any: a group whose support would go
// negative, or a surviving group one of whose MIN/MAX value counts would, is
// refused with the table and d unchanged. Then one pass over the groups
// finds each once, folds its partial once and swaps its old row for its new
// one, each new row's key and tuple allocated on its own, so that a row
// keeps nothing of the others alive.
func (t *Table) Apply(p *delta.GroupPartials, d *delta.Delta) (n int64, digest uint64, err error) {
	type change struct {
		groupKey string
		gp       *delta.GroupPartial
		support  int64  // the group's support after the fold
		row      string // the group's row key, if the table holds the group
		old      *group // nil for a group the table does not hold
	}
	changes := make([]change, 0, p.GroupCount())
	fresh := 0
	p.Scan(func(groupKey string, gp *delta.GroupPartial) bool {
		c := change{groupKey: groupKey, gp: gp}
		var r storedRow
		c.row, r = t.groupRow(groupKey)
		c.old, c.support = r.group, gp.Support
		if c.old == nil {
			fresh++
		} else {
			c.support += c.old.support
		}
		if c.support < 0 {
			err = fmt.Errorf("storage: group %v support would go negative (%d)", mustDecode(groupKey), c.support)
			return false
		}
		for i, a := range gp.Accums {
			// A group that goes is not checked: its accumulators go with it.
			if c.support > 0 && (c.old == nil && !a.Valid() || c.old != nil && !c.old.accums[i].CanFold(a)) {
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
	t.rows.Grow(fresh)
	var now []byte // a changed group's output row after its fold
	for _, c := range changes {
		var g *group
		if c.support > 0 {
			g = &group{support: c.support, accums: make([]delta.Accum, len(c.gp.Accums))}
			for i, a := range c.gp.Accums {
				if c.old != nil {
					g.accums[i] = c.old.accums[i].Clone()
					g.accums[i].Fold(a)
				} else {
					g.accums[i] = a.Clone()
				}
			}
			now = appendRow(now[:0], c.groupKey, g.support, g.accums)
			if c.old != nil && c.row == string(now) { // the same row: nothing to install
				r, _ := t.rows.Ref(t.slot(cowmap.Hash(c.row), c.row), c.row)
				r.group = g
				continue
			}
		}
		if c.old != nil {
			hash := cowmap.Hash(c.row)
			t.deleteKey(hash, c.row, 1, 1)
			n, digest = n+1, digest^rowDigest(hash, -1)
			if d != nil {
				d.AddEncoded(c.row, -1)
			}
		}
		if g == nil {
			continue
		}
		row := string(now)
		hash := cowmap.Hash(row)
		t.insertKey(hash, row, nil, 1, g)
		n, digest = n+1, digest^rowDigest(hash, 1)
		if d != nil {
			d.AddEncoded(row, 1)
		}
	}
	return n, digest, nil
}

// ScanGroups iterates a summary table's group state (encoded group key,
// support count, accumulators) — the representation warehouse snapshots
// persist — from its rows. The accumulators must not be mutated.
func (t *Table) ScanGroups(fn func(groupKey string, support int64, accums []delta.Accum) bool) {
	t.rows.Scan(func(_ uint64, key string, r storedRow) bool {
		return fn(key[:prefixLen(key, t.placed)], r.group.support, r.group.accums)
	})
}

// CheckGroups checks a summary table's rows against the group state they
// carry: every row has count 1 and a group of positive support with one
// accumulator per aggregate, and its key is the encoding of its grouping
// values followed by its group's outputs. Any other table has nothing to
// check.
func (t *Table) CheckGroups() error {
	if !t.summary {
		return nil
	}
	var err error
	var enc []byte
	t.rows.Scan(func(_ uint64, key string, r storedRow) bool {
		g := r.group
		switch {
		case r.count != 1:
			err = fmt.Errorf("storage: summary row %v has count %d", r.tup, r.count)
		case g == nil:
			err = fmt.Errorf("storage: summary row %v carries no group", r.tup)
		case g.support <= 0:
			err = fmt.Errorf("storage: summary row %v has group support %d", r.tup, g.support)
		case len(g.accums) != len(t.specs):
			err = fmt.Errorf("storage: summary row %v has %d accumulators for %d aggregates", r.tup, len(g.accums), len(t.specs))
		default:
			if enc = appendRow(enc[:0], key[:prefixLen(key, t.placed)], g.support, g.accums); string(enc) != key {
				err = fmt.Errorf("storage: summary row %v, its group's outputs give %v", r.tup, mustDecode(string(enc)))
			}
		}
		return err == nil
	})
	return err
}

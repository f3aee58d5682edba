package storage

import (
	"fmt"
	"sort"

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
	groups      map[string]*groupEntry
	// cow marks groups (map and entries) as shared with other handles
	// (Clone is copy-on-write): mutation through this handle must detach
	// onto private entries first. See Table.cow for the sharing contract.
	cow bool
}

// groupEntry is one group's state. group is the decoded group key, written
// once when the entry is made and shared, read-only, by its detached copies.
type groupEntry struct {
	group   relation.Tuple
	support int64
	accums  []*delta.Accum
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
		groups:      make(map[string]*groupEntry),
	}
}

// Schema returns the output schema (group columns then aggregate columns).
func (t *AggTable) Schema() relation.Schema { return t.outSchema }

// GroupSchema returns the schema of the grouping columns.
func (t *AggTable) GroupSchema() relation.Schema { return t.groupSchema }

// Specs returns the aggregate specs.
func (t *AggTable) Specs() []delta.AggSpec { return t.specs }

// Cardinality returns the number of groups (= output rows).
func (t *AggTable) Cardinality() int64 { return int64(len(t.groups)) }

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
	for _, e := range t.groups {
		if !fn(e.row(), 1) {
			return
		}
	}
}

// ScanEncoded is Scan over the output rows' Tuple.Encode keys: the stored
// group key followed by the encoded aggregate outputs.
func (t *AggTable) ScanEncoded(fn func(key string, count int64) bool) {
	var enc []byte
	outs := make(relation.Tuple, len(t.specs))
	for key, e := range t.groups {
		for i, a := range e.accums {
			outs[i] = a.Output(e.support)
		}
		enc = outs.AppendEncoded(append(enc[:0], key...))
		if !fn(string(enc), 1) {
			return
		}
	}
}

// SortedRows returns the output rows sorted lexicographically.
func (t *AggTable) SortedRows() []CountedTuple {
	out := make([]CountedTuple, 0, len(t.groups))
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
		old := t.groups[groupKey]
		var oldRow, group relation.Tuple
		newSupport := gp.Support
		var newEntry *groupEntry
		if old != nil {
			oldRow = old.row()
			group = old.group
			newSupport += old.support
		}
		if newSupport < 0 {
			err = fmt.Errorf("storage: group %s support would go negative (%d)", groupKey, newSupport)
			return false
		}
		if newSupport > 0 {
			if group == nil {
				group = mustDecode(groupKey)
			}
			newEntry = &groupEntry{group: group, support: newSupport, accums: make([]*delta.Accum, len(gp.Accums))}
			for i, a := range gp.Accums {
				na := a.Clone()
				if old != nil {
					na.Fold(old.accums[i])
				}
				if !na.Valid() {
					err = fmt.Errorf("storage: group %s aggregate %d would delete absent value", groupKey, i)
					return false
				}
				newEntry.accums[i] = na
			}
		}
		var newRow relation.Tuple
		if newEntry != nil {
			newRow = newEntry.row()
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

// detach gives the table private group entries before the first mutation
// through this handle. Entries are deep-copied (Apply folds accumulators in
// place), leaving sibling handles' state untouched.
func (t *AggTable) detach() {
	if !t.cow {
		return
	}
	groups := make(map[string]*groupEntry, len(t.groups))
	for k, e := range t.groups {
		ne := &groupEntry{group: e.group, support: e.support, accums: make([]*delta.Accum, len(e.accums))}
		for i, a := range e.accums {
			ne.accums[i] = a.Clone()
		}
		groups[k] = ne
	}
	t.groups = groups
	t.cow = false
}

// Apply installs the partials, mutating the group state. It returns an error
// (leaving the table partially modified only on programmer error upstream)
// if any group's support would go negative.
func (t *AggTable) Apply(p *delta.GroupPartials) error {
	// Validate first so a bad batch does not leave the table half-applied.
	var err error
	p.Scan(func(groupKey string, gp *delta.GroupPartial) bool {
		var have int64
		if old := t.groups[groupKey]; old != nil {
			have = old.support
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
	t.detach()
	p.Scan(func(groupKey string, gp *delta.GroupPartial) bool {
		old := t.groups[groupKey]
		if old == nil {
			if gp.Support == 0 {
				return true
			}
			e := &groupEntry{group: mustDecode(groupKey), support: gp.Support, accums: make([]*delta.Accum, len(gp.Accums))}
			for i, a := range gp.Accums {
				e.accums[i] = a.Clone()
			}
			t.groups[groupKey] = e
			return true
		}
		old.support += gp.Support
		if old.support == 0 {
			delete(t.groups, groupKey)
			return true
		}
		for i, a := range gp.Accums {
			old.accums[i].Fold(a)
		}
		return true
	})
	return nil
}

// ScanGroups iterates the raw group state (encoded group key, support
// count, accumulators) — the representation warehouse snapshots persist.
// The accumulators must not be mutated.
func (t *AggTable) ScanGroups(fn func(groupKey string, support int64, accums []*delta.Accum) bool) {
	for key, e := range t.groups {
		if !fn(key, e.support, e.accums) {
			return
		}
	}
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
	t.detach()
	e := &groupEntry{group: group, support: support, accums: make([]*delta.Accum, len(accums))}
	for i, a := range accums {
		e.accums[i] = a.Clone()
	}
	t.groups[groupKey] = e
	return nil
}

// Clone returns an independent copy of the table in O(1): the group map and
// its entries are shared copy-on-write, and whichever handle mutates first
// detaches onto deep-copied entries. See Table.Clone.
func (t *AggTable) Clone() *AggTable {
	t.cow = true
	return &AggTable{
		groupSchema: t.groupSchema.Clone(),
		specs:       append([]delta.AggSpec(nil), t.specs...),
		outSchema:   t.outSchema.Clone(),
		groups:      t.groups,
		cow:         true,
	}
}

// AsTable converts the current output rows into a plain counted Table, for
// comparisons against recomputation in tests.
func (t *AggTable) AsTable() *Table {
	out := NewTable(t.outSchema)
	t.Scan(func(tup relation.Tuple, count int64) bool {
		out.Insert(tup, count)
		return true
	})
	return out
}

// Clear removes all groups. A shared (cloned) group map is simply
// abandoned to its other handles.
func (t *AggTable) Clear() {
	t.groups = make(map[string]*groupEntry)
	t.cow = false
}

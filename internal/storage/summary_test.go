package storage

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/cowmap"
	"repro/internal/delta"
	"repro/internal/relation"
)

// TestCheckGroupsCatchesAGroupChangedByHand: CheckGroups passes on the
// groups Apply stores, and fails once a row carries a group whose support
// was changed by hand — to one that disagrees with the row's COUNT, and to
// zero.
func TestCheckGroupsCatchesAGroupChangedByHand(t *testing.T) {
	for _, support := range []func(int64) int64{
		func(s int64) int64 { return s + 1 },
		func(int64) int64 { return 0 },
	} {
		tbl := newAgg()
		p := delta.NewGroupPartials(groupSchema, sumSpecs)
		accumulate(p, "a", 10, 2)
		accumulate(p, "b", 1, 1)
		if _, _, err := tbl.Apply(p, nil); err != nil {
			t.Fatal(err)
		}
		if err := tbl.CheckGroups(); err != nil {
			t.Fatalf("the groups Apply stored: %v", err)
		}
		var key string
		tbl.ScanEncoded(func(k string, _ int64) bool {
			key = k
			return false
		})
		r, _ := tbl.rows.Ref(tbl.slot(cowmap.Hash(key), key), key)
		r.group = &group{support: support(r.group.support), accums: r.group.accums}
		if err := tbl.CheckGroups(); err == nil {
			t.Fatalf("a row whose group's support went to %d passes", r.group.support)
		}
	}
}

// summaryShape is one summary table FuzzSummaryTable drives: its grouping
// columns, aggregates and the inputs a row (g, v) gives them.
type summaryShape struct {
	groupBy bool
	specs   []delta.AggSpec
	names   []string
	minMax  bool // a MIN or MAX is among the specs
}

var summaryShapes = []summaryShape{
	{groupBy: true, names: []string{"total", "n", "lo", "hi"}, minMax: true, specs: []delta.AggSpec{
		{Kind: delta.AggSum, ValueKind: relation.KindInt}, {Kind: delta.AggCount},
		{Kind: delta.AggMin, ValueKind: relation.KindInt}, {Kind: delta.AggMax, ValueKind: relation.KindInt}}},
	// No GROUP BY: one group, whose row the table files by its whole key.
	{names: []string{"total", "hi"}, minMax: true, specs: []delta.AggSpec{
		{Kind: delta.AggSum, ValueKind: relation.KindInt}, {Kind: delta.AggMax, ValueKind: relation.KindInt}}},
	// DISTINCT-shaped: no aggregates, a group's row is its group key.
	{groupBy: true},
}

func (s summaryShape) table() *Table {
	if s.groupBy {
		return newSummary(relation.Schema{{Name: "g", Kind: relation.KindInt}}, s.specs, s.names...)
	}
	return newSummary(nil, s.specs, s.names...)
}

// partials turns changes to the model's (group, value) rows into the
// partials of the table's groups.
func (s summaryShape) partials(changes map[[2]int64]int64) *delta.GroupPartials {
	var gs relation.Schema
	if s.groupBy {
		gs = relation.Schema{{Name: "g", Kind: relation.KindInt}}
	}
	p := delta.NewGroupPartials(gs, s.specs)
	for gv, count := range changes {
		var group relation.Tuple
		if s.groupBy {
			group = relation.Tuple{relation.NewInt(gv[0])}
		}
		inputs := make([]relation.Value, len(s.specs))
		for i, spec := range s.specs {
			if inputs[i] = relation.Null; spec.Kind != delta.AggCount {
				inputs[i] = relation.NewInt(gv[1])
			}
		}
		p.Accumulate(group, inputs, count)
	}
	return p
}

// rows returns the table the model's rows aggregate to: one row per group
// of positive support.
func (s summaryShape) rows(model map[[2]int64]int64) *Table {
	support := make(map[int64]int64)
	for gv, c := range model {
		support[gv[0]] += c
	}
	out := NewTable(s.table().Schema())
	for g, n := range support {
		if n == 0 {
			continue
		}
		var tup relation.Tuple
		if s.groupBy {
			tup = append(tup, relation.NewInt(g))
		}
		var sum int64
		lo, hi := int64(1<<62), int64(-1<<62)
		for gv, c := range model {
			if gv[0] == g && c > 0 {
				sum += gv[1] * c
				lo, hi = min(lo, gv[1]), max(hi, gv[1])
			}
		}
		for _, spec := range s.specs {
			tup = append(tup, relation.NewInt(map[delta.AggKind]int64{delta.AggSum: sum, delta.AggCount: n, delta.AggMin: lo, delta.AggMax: hi}[spec.Kind]))
		}
		out.Insert(tup, 1)
	}
	return out
}

// FuzzSummaryTable drives one summary table — grouped with SUM, COUNT, MIN
// and MAX, with no GROUP BY, or DISTINCT-shaped, by the first byte — through
// Apply batches, refused ones among them, clones, bulk rebuilds and join
// indexes, against a model of the (group, value) rows its groups aggregate.
// After every step the table holds the model's rows, its digest, indexes
// and groups check, and a clone pinned earlier still holds its model's rows.
func FuzzSummaryTable(f *testing.F) {
	f.Add([]byte{0, 0, 3, 4, 9, 130, 5, 1, 7, 1, 2, 3, 4, 5, 6, 6, 1, 4, 2, 1, 6, 0, 0, 5, 200, 140})
	f.Add([]byte{1, 0, 4, 1, 5, 9, 4, 128, 5, 2, 133, 130, 6, 0, 4, 0, 7, 1, 0, 2, 129, 131})
	f.Add([]byte{2, 1, 5, 0, 4, 8, 12, 128, 7, 0, 5, 3, 2, 132, 136, 6, 1, 4, 1, 6, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		s := summaryShapes[int(next())%len(summaryShapes)]
		cur, model := s.table(), map[[2]int64]int64{}
		pinned, pinnedModel := cur.Clone(), map[[2]int64]int64{}
		check := func(step int, what string) {
			t.Helper()
			for _, err := range []error{cur.CheckDigest(), cur.CheckIndexes(), cur.CheckGroups()} {
				if err != nil {
					t.Fatalf("step %d (%s): %v", step, what, err)
				}
			}
			if want := s.rows(model); !cur.Equal(want) {
				t.Fatalf("step %d (%s): the table holds %v, the model %v", step, what, cur.SortedRows(), want.SortedRows())
			}
			if want := s.rows(pinnedModel); !pinned.Equal(want) || pinned.Digest() != want.Digest() {
				t.Fatalf("step %d (%s): the pinned clone holds %v, its model %v", step, what, pinned.SortedRows(), want.SortedRows())
			}
		}
		// change draws one change to a group's rows into changes, against
		// the model as changes leave it: an insert, or a delete of a row
		// the group holds.
		change := func(changes map[[2]int64]int64) {
			c := next()
			g := int64(c % 4)
			if !s.groupBy {
				g = 0
			}
			var held [][2]int64
			for gv, n := range model {
				if gv[0] == g && n+changes[gv] > 0 {
					held = append(held, gv)
				}
			}
			if c&0x80 != 0 && len(held) > 0 {
				slices.SortFunc(held, func(a, b [2]int64) int { return int(a[1] - b[1]) })
				changes[held[int(next())%len(held)]]--
				return
			}
			changes[[2]int64{g, int64(c>>2)%6 - 1}] += 1 + int64(c>>5)&1
		}
		for step := 0; len(ops) > 0 && step < 64; step++ {
			switch op := next() % 8; {
			case op < 5: // a batch; op 4 adds a change that refuses it
				changes := map[[2]int64]int64{}
				for n := 1 + int(next())%6; n > 0; n-- {
					change(changes)
				}
				refused := op == 4
				if refused {
					c := next()
					g := int64(c % 4)
					if !s.groupBy {
						g = 0
					}
					var support int64
					for _, m := range []map[[2]int64]int64{model, changes} {
						for gv, n := range m {
							if gv[0] == g {
								support += n
							}
						}
					}
					if s.minMax && c&0x80 != 0 && support >= 2 {
						changes[[2]int64{g, 100}]-- // a value the group never held; it survives
					} else {
						changes[[2]int64{g, 0}] -= support + 1 // its support goes negative
					}
				}
				before, old := s.rows(model), cur.Digest()
				var d *delta.Delta
				if next()%2 == 0 {
					d = delta.New(cur.Schema())
				}
				n, digest, err := cur.Apply(s.partials(changes), d)
				if refused {
					if err == nil || n != 0 || cur.Digest() != old || d != nil && d.Size() != 0 {
						t.Fatalf("step %d: a refused batch returned %v, %d rows, and changed the table", step, err, n)
					}
					check(step, "refused batch")
					continue
				}
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				for gv, c := range changes {
					if model[gv] += c; model[gv] == 0 {
						delete(model, gv)
					}
				}
				if d != nil {
					if err := d.Seal(); err != nil {
						t.Fatal(err)
					}
					if n != d.Size() || digest != d.Digest() {
						t.Fatalf("step %d: Apply installed %d rows, digest %016x; its delta has %d, %016x", step, n, digest, d.Size(), d.Digest())
					}
					if _, err := before.ApplyDelta(d); err != nil {
						t.Fatal(err)
					}
					if !before.Equal(cur) {
						t.Fatalf("step %d: the old rows with Apply's delta applied are not the new ones", step)
					}
				}
				check(step, "batch")
			case op == 5: // pin the handle, and write through a clone
				pinned, pinnedModel, cur = cur, maps.Clone(model), cur.Clone()
				check(step, "clone")
			case op == 6: // a bulk rebuild: into an empty table, or over a clone
				into, every := s.table(), 1
				if next()%2 == 0 {
					into, every = cur.Clone(), 2
				}
				b := into.BuildGroups(int(cur.DistinctCount()))
				i := 0
				cur.ScanGroups(func(key string, support int64, accums []delta.Accum) bool {
					if i++; i%every == 0 {
						owned := make([]*delta.Accum, len(accums))
						for j := range accums {
							c := accums[j].Clone()
							owned[j] = &c
						}
						if err := b.Add([]byte(key), support, owned); err != nil {
							t.Fatalf("step %d: %v", step, err)
						}
					}
					return true
				})
				b.Done()
				cur = into
				check(step, "rebuild")
			default: // a join index on a drawn column
				cur.JoinIndex([]int{int(next()) % len(cur.Schema())})
				check(step, "index")
			}
		}
	})
}

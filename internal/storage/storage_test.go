package storage

import (
	"testing"
	"testing/quick"

	"repro/internal/cowmap"
	"repro/internal/delta"
	"repro/internal/relation"
)

var schema = relation.Schema{{Name: "k", Kind: relation.KindInt}, {Name: "v", Kind: relation.KindString}}

// countOf is the multiplicity of tup in t (0 if absent).
func countOf(t *Table, tup relation.Tuple) int64 {
	key := tup.Encode()
	return t.countKey(cowmap.Hash(key), key)
}

func row(k int64, v string) relation.Tuple {
	return relation.Tuple{relation.NewInt(k), relation.NewString(v)}
}

func TestTableInsertDeleteCount(t *testing.T) {
	tbl := NewTable(schema)
	tbl.Insert(row(1, "a"), 2)
	tbl.Insert(row(2, "b"), 1)
	if tbl.Cardinality() != 3 || tbl.DistinctCount() != 2 {
		t.Fatalf("card=%d distinct=%d", tbl.Cardinality(), tbl.DistinctCount())
	}
	if countOf(tbl, row(1, "a")) != 2 || countOf(tbl, row(9, "z")) != 0 {
		t.Errorf("Count wrong")
	}
	if err := tbl.Delete(row(1, "a"), 1); err != nil {
		t.Fatal(err)
	}
	if countOf(tbl, row(1, "a")) != 1 || tbl.Cardinality() != 2 {
		t.Errorf("after delete: count=%d card=%d", countOf(tbl, row(1, "a")), tbl.Cardinality())
	}
	if err := tbl.Delete(row(1, "a"), 5); err == nil {
		t.Errorf("over-delete should fail")
	}
	if err := tbl.Delete(row(1, "a"), 0); err == nil {
		t.Errorf("zero-delete should fail")
	}
}

func TestTableInsertNonPositivePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	NewTable(schema).Insert(row(1, "a"), 0)
}

func TestTableScanEarlyStop(t *testing.T) {
	tbl := NewTable(schema)
	tbl.Insert(row(1, "a"), 1)
	tbl.Insert(row(2, "b"), 1)
	n := 0
	tbl.Scan(func(relation.Tuple, int64) bool { n++; return false })
	if n != 1 {
		t.Errorf("scan visited %d rows after early stop", n)
	}
}

func TestTableCloneEqual(t *testing.T) {
	tbl := NewTable(schema)
	tbl.Insert(row(1, "a"), 2)
	cl := tbl.Clone()
	if !tbl.Equal(cl) {
		t.Fatalf("clone not equal")
	}
	cl.Insert(row(2, "b"), 1)
	if tbl.Equal(cl) {
		t.Errorf("Equal should detect extra row")
	}
	cl2 := tbl.Clone()
	_ = cl2.Delete(row(1, "a"), 1)
	cl2.Insert(row(1, "a"), 1)
	if !tbl.Equal(cl2) {
		t.Errorf("same bag should be equal")
	}
}

func TestTableSortedRows(t *testing.T) {
	tbl := NewTable(schema)
	tbl.Insert(row(2, "b"), 1)
	tbl.Insert(row(1, "a"), 3)
	rows := tbl.SortedRows()
	if len(rows) != 2 || rows[0].Tuple[0].Int() != 1 || rows[0].Count != 3 {
		t.Errorf("SortedRows = %v", rows)
	}
}

func TestApplyDelta(t *testing.T) {
	tbl := NewTable(schema)
	tbl.Insert(row(1, "a"), 2)
	d := delta.New(schema)
	d.Add(row(1, "a"), -1)
	d.Add(row(2, "b"), 3)
	d.Seal()
	if _, err := tbl.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	if countOf(tbl, row(1, "a")) != 1 || countOf(tbl, row(2, "b")) != 3 {
		t.Errorf("ApplyDelta wrong state")
	}
}

// TestApplyDeltaAdoptsDecodedTuples: a delta installs the tuples its Seal
// decoded, for the rows new to the table, and the table is the one the same
// changes made row by row give.
func TestApplyDeltaAdoptsDecodedTuples(t *testing.T) {
	tbl, plain := NewTable(schema), NewTable(schema)
	for _, x := range []*Table{tbl, plain} {
		x.Insert(row(1, "a"), 2)
		x.Insert(row(3, "c"), 1)
	}
	d := delta.New(schema)
	d.Add(row(1, "a"), 1)  // a row the table holds
	d.Add(row(2, "b"), 3)  // a new row
	d.Add(row(3, "c"), -1) // a delete
	d.Seal()
	plain.Insert(row(1, "a"), 1)
	plain.Insert(row(2, "b"), 3)
	if err := plain.Delete(row(3, "c"), 1); err != nil {
		t.Fatal(err)
	}

	decoded := make(map[string]relation.Tuple)
	d.Scan(func(tp relation.Tuple, _ int64) bool {
		decoded[tp.Encode()] = tp
		return true
	})
	if _, err := tbl.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	if !tbl.Equal(plain) || tbl.Digest() != plain.Digest() || tbl.Cardinality() != plain.Cardinality() {
		t.Fatalf("installing the delta gives %v, the same changes row by row %v", tbl.SortedRows(), plain.SortedRows())
	}
	if err := tbl.CheckDigest(); err != nil {
		t.Fatal(err)
	}
	adopted := 0
	tbl.Scan(func(tp relation.Tuple, _ int64) bool {
		if m := decoded[tp.Encode()]; m != nil && &m[0] == &tp[0] {
			adopted++
		}
		return true
	})
	if adopted != 1 {
		t.Fatalf("the table holds %d of the delta's decoded tuples, want the one new row's", adopted)
	}
}

func TestApplyDeltaValidatesBeforeMutating(t *testing.T) {
	tbl := NewTable(schema)
	tbl.Insert(row(1, "a"), 1)
	d := delta.New(schema)
	d.Add(row(2, "b"), 5)  // valid insert
	d.Add(row(1, "a"), -3) // invalid over-delete
	before := tbl.Clone()
	d.Seal()
	if _, err := tbl.ApplyDelta(d); err == nil {
		t.Fatal("expected error")
	}
	if !tbl.Equal(before) {
		t.Errorf("failed ApplyDelta mutated the table")
	}
}

func TestApplyDeltaSchemaMismatch(t *testing.T) {
	tbl := NewTable(schema)
	d := delta.New(relation.Schema{{Name: "x", Kind: relation.KindInt}})
	d.Seal()
	if _, err := tbl.ApplyDelta(d); err == nil {
		t.Errorf("expected schema mismatch error")
	}
}

// Property: applying a delta then its negation restores the original table.
func TestApplyDeltaRoundTripQuick(t *testing.T) {
	f := func(base []uint8, plus []uint8, minusIdx []uint8) bool {
		tbl := NewTable(schema)
		for _, b := range base {
			tbl.Insert(row(int64(b%8), "x"), 1)
		}
		orig := tbl.Clone()
		d := delta.New(schema)
		for _, p := range plus {
			d.Add(row(int64(p%8), "x"), 1)
		}
		// Delete only rows that exist and aren't already fully deleted in d.
		for _, mi := range minusIdx {
			r := row(int64(mi%8), "x")
			if countOf(tbl, r) > 0 {
				d.Add(r, -1)
			}
		}
		// The delta may over-delete if minusIdx repeats; skip those cases.
		valid := true
		d.Seal()
		d.Scan(func(tup relation.Tuple, c int64) bool {
			if c < 0 && countOf(tbl, tup) < -c {
				valid = false
				return false
			}
			return true
		})
		if !valid {
			return true
		}
		d.Seal()
		if _, err := tbl.ApplyDelta(d); err != nil {
			return false
		}
		if _, err := tbl.ApplyDelta(negate(d)); err != nil {
			return false
		}
		return tbl.Equal(orig)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

var groupSchema = relation.Schema{{Name: "g", Kind: relation.KindString}}
var sumSpecs = []delta.AggSpec{
	{Kind: delta.AggSum, ValueKind: relation.KindFloat},
	{Kind: delta.AggCount, ValueKind: relation.KindInt},
}

// newSummary returns an empty summary table grouped on gs whose
// aggregates, specs, are named names.
func newSummary(gs relation.Schema, specs []delta.AggSpec, names ...string) *Table {
	out := gs.Clone()
	for i, s := range specs {
		out = append(out, relation.Column{Name: names[i], Kind: s.OutputKind()})
	}
	return NewSummaryTable(out, len(gs), specs)
}

func newAgg() *Table { return newSummary(groupSchema, sumSpecs, "total", "n") }

func accumulate(p *delta.GroupPartials, g string, v float64, count int64) {
	p.Accumulate(relation.Tuple{relation.NewString(g)},
		[]relation.Value{relation.NewFloat(v), relation.Null}, count)
}

func TestAggTableApplyAndScan(t *testing.T) {
	at := newAgg()
	if got := at.Schema().String(); got != "g VARCHAR, total FLOAT, n INTEGER" {
		t.Fatalf("schema = %q", got)
	}
	p := delta.NewGroupPartials(groupSchema, sumSpecs)
	accumulate(p, "a", 10, 1)
	accumulate(p, "a", 5, 1)
	accumulate(p, "b", 2, 1)
	if _, _, err := at.Apply(p, nil); err != nil {
		t.Fatal(err)
	}
	if at.Cardinality() != 2 {
		t.Fatalf("cardinality = %d", at.Cardinality())
	}
	rows := at.SortedRows()
	if rows[0].Tuple.String() != "(a, 15, 2)" || rows[1].Tuple.String() != "(b, 2, 1)" {
		t.Errorf("rows = %v", rows)
	}
}

// applyWithDelta installs p into at and returns the delta Apply appended
// to, sealed.
func applyWithDelta(t *testing.T, at *Table, p *delta.GroupPartials) *delta.Delta {
	t.Helper()
	d := delta.New(at.Schema())
	if _, _, err := at.Apply(p, d); err != nil {
		t.Fatal(err)
	}
	if err := d.Seal(); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestAggTableApplyAppendsDelta(t *testing.T) {
	at := newAgg()
	p1 := delta.NewGroupPartials(groupSchema, sumSpecs)
	accumulate(p1, "a", 10, 2)
	if _, _, err := at.Apply(p1, nil); err != nil {
		t.Fatal(err)
	}
	// Change: remove one contributing row from a (value 10), add group c.
	p2 := delta.NewGroupPartials(groupSchema, sumSpecs)
	accumulate(p2, "a", 10, -1)
	accumulate(p2, "c", 7, 1)
	before := aggRows(at)
	d := applyWithDelta(t, at, p2)
	ch := d.Sorted()
	// Expected: -(a,20,2), +(a,10,1), +(c,7,1)
	if len(ch) != 3 {
		t.Fatalf("changes = %v", ch)
	}
	if ch[0].Tuple.String() != "(a, 10, 1)" || ch[0].Count != 1 {
		t.Errorf("ch[0] = %v", ch[0])
	}
	if ch[1].Tuple.String() != "(a, 20, 2)" || ch[1].Count != -1 {
		t.Errorf("ch[1] = %v", ch[1])
	}
	if ch[2].Tuple.String() != "(c, 7, 1)" || ch[2].Count != 1 {
		t.Errorf("ch[2] = %v", ch[2])
	}
	// The old rows with the delta applied are the new ones.
	if _, err := before.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	if !before.Equal(aggRows(at)) {
		t.Errorf("Apply's rows and its delta disagree")
	}
}

// aggRows copies an aggregate's output rows into a table of their own, to
// compare by encoded row.
func aggRows(at *Table) *Table {
	tbl := NewTable(at.Schema())
	at.Scan(func(tup relation.Tuple, count int64) bool {
		tbl.Insert(tup, count)
		return true
	})
	return tbl
}

func TestAggTableGroupDisappears(t *testing.T) {
	at := newAgg()
	p1 := delta.NewGroupPartials(groupSchema, sumSpecs)
	accumulate(p1, "a", 3, 1)
	if _, _, err := at.Apply(p1, nil); err != nil {
		t.Fatal(err)
	}
	p2 := delta.NewGroupPartials(groupSchema, sumSpecs)
	accumulate(p2, "a", 3, -1)
	if d := applyWithDelta(t, at, p2); d.PlusCount() != 0 || d.MinusCount() != 1 {
		t.Errorf("delta = %v", d.Sorted())
	}
	if at.Cardinality() != 0 {
		t.Errorf("group should be gone")
	}
}

func TestAggTableOffsettingChangeProducesNoDelta(t *testing.T) {
	at := newAgg()
	p1 := delta.NewGroupPartials(groupSchema, sumSpecs)
	accumulate(p1, "a", 5, 1)
	accumulate(p1, "a", 3, 1)
	if _, _, err := at.Apply(p1, nil); err != nil {
		t.Fatal(err)
	}
	// Delete a 5-row and insert another 5-row: same group row after.
	p2 := delta.NewGroupPartials(groupSchema, sumSpecs)
	accumulate(p2, "a", 5, -1)
	accumulate(p2, "a", 5, 1)
	if d := applyWithDelta(t, at, p2); !d.IsEmpty() {
		t.Errorf("offsetting change produced delta %v", d.Sorted())
	}
}

func TestAggTableNegativeSupportRejected(t *testing.T) {
	at := newAgg()
	p := delta.NewGroupPartials(groupSchema, sumSpecs)
	accumulate(p, "a", 5, -1)
	d := delta.New(at.Schema())
	if _, _, err := at.Apply(p, d); err == nil {
		t.Errorf("Apply should reject negative support")
	}
	if at.Cardinality() != 0 || d.Size() != 0 {
		t.Errorf("failed Apply mutated table or appended %d rows", d.Size())
	}
}

func TestAggTableClone(t *testing.T) {
	at := newAgg()
	p := delta.NewGroupPartials(groupSchema, sumSpecs)
	accumulate(p, "a", 5, 1)
	if _, _, err := at.Apply(p, nil); err != nil {
		t.Fatal(err)
	}
	cl := at.Clone()
	p2 := delta.NewGroupPartials(groupSchema, sumSpecs)
	accumulate(p2, "b", 1, 1)
	if _, _, err := cl.Apply(p2, nil); err != nil {
		t.Fatal(err)
	}
	if at.Cardinality() != 1 || cl.Cardinality() != 2 {
		t.Errorf("clone aliases state: %d %d", at.Cardinality(), cl.Cardinality())
	}
	if !cl.summary || cl.placed != len(groupSchema) || !cl.Schema()[:cl.placed].Equal(groupSchema) || len(cl.specs) != 2 {
		t.Errorf("clone metadata wrong")
	}
}

func TestAggTableMinMaxIncremental(t *testing.T) {
	specs := []delta.AggSpec{{Kind: delta.AggMin, ValueKind: relation.KindInt}, {Kind: delta.AggMax, ValueKind: relation.KindInt}}
	at := newSummary(groupSchema, specs, "lo", "hi")
	add := func(p *delta.GroupPartials, v int64, c int64) {
		p.Accumulate(relation.Tuple{relation.NewString("g")},
			[]relation.Value{relation.NewInt(v), relation.NewInt(v)}, c)
	}
	p := delta.NewGroupPartials(groupSchema, specs)
	add(p, 4, 1)
	add(p, 7, 1)
	add(p, 1, 1)
	if _, _, err := at.Apply(p, nil); err != nil {
		t.Fatal(err)
	}
	rows := at.SortedRows()
	if rows[0].Tuple.String() != "(g, 1, 7)" {
		t.Fatalf("rows = %v", rows)
	}
	// Delete the min and the max; new extremes must be recoverable.
	p2 := delta.NewGroupPartials(groupSchema, specs)
	add(p2, 1, -1)
	add(p2, 7, -1)
	if d := applyWithDelta(t, at, p2); d.Size() != 2 {
		t.Fatalf("delta = %v", d.Sorted())
	}
	if at.SortedRows()[0].Tuple.String() != "(g, 4, 4)" {
		t.Errorf("after deletes: %v", at.SortedRows())
	}
}

func TestAggTableDeleteAbsentMinMaxValueRejected(t *testing.T) {
	specs := []delta.AggSpec{{Kind: delta.AggMin, ValueKind: relation.KindInt}}
	at := newSummary(groupSchema, specs, "lo")
	p := delta.NewGroupPartials(groupSchema, specs)
	p.Accumulate(relation.Tuple{relation.NewString("g")}, []relation.Value{relation.NewInt(5)}, 2)
	if _, _, err := at.Apply(p, nil); err != nil {
		t.Fatal(err)
	}
	bad := delta.NewGroupPartials(groupSchema, specs)
	bad.Accumulate(relation.Tuple{relation.NewString("g")}, []relation.Value{relation.NewInt(99)}, -1)
	// Support stays positive (2-1=1) but value 99 was never present.
	if _, _, err := at.Apply(bad, delta.New(at.Schema())); err == nil {
		t.Errorf("expected invalid-accumulator error")
	}
}

package storage

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/delta"
	"repro/internal/relation"
)

// TestBuildEqualsInserts: a bulk build holds the rows, counts, digest and
// cardinality that inserting the same rows one at a time gives — into an
// empty table, whose row map it fills at once, and into one that holds rows
// and an index, where it places row by row — with a row repeated across
// chunks merging its counts, and every stored tuple's capacity its length.
func TestBuildEqualsInserts(t *testing.T) {
	const n = 3*slabRows + 17
	rowAt := func(i int) (relation.Tuple, int64) { return row(int64(i%(n-40)), "v"), int64(1 + i%3) }
	for _, held := range []bool{false, true} {
		built, want := NewTable(schema), NewTable(schema)
		if held {
			for _, tbl := range []*Table{built, want} {
				tbl.Insert(row(5, "v"), 2)
				tbl.Insert(row(-1, "w"), 1)
				tbl.JoinIndex([]int{1})
			}
		}
		b := built.Build(n)
		for i := 0; i < n; i++ {
			tup, count := rowAt(i)
			if err := b.Add(tup.AppendEncoded(nil), count); err != nil {
				t.Fatal(err)
			}
			want.Insert(tup, count)
		}
		b.Done()
		if !built.Equal(want) || built.Digest() != want.Digest() || built.DistinctCount() != want.DistinctCount() {
			t.Fatalf("held=%v: the build differs from the inserts", held)
		}
		if err := built.CheckDigest(); err != nil {
			t.Fatalf("held=%v: %v", held, err)
		}
		checkIndexes(t, "build", built)
		built.Scan(func(tup relation.Tuple, _ int64) bool {
			if cap(tup) != len(tup) {
				t.Fatalf("held=%v: a stored tuple has capacity %d for %d values", held, cap(tup), len(tup))
			}
			return true
		})
	}
}

// TestBuildRefusesBadRows: a row that does not decode, one of the wrong
// width and a count that is not positive are refused, and add nothing.
func TestBuildRefusesBadRows(t *testing.T) {
	tbl := NewTable(schema)
	b := tbl.Build(4)
	good := row(1, "a").AppendEncoded(nil)
	for what, add := range map[string]func() error{
		"truncated":  func() error { return b.Add(good[:len(good)-1], 1) },
		"narrow":     func() error { return b.Add(relation.Tuple{relation.NewInt(1)}.AppendEncoded(nil), 1) },
		"zero count": func() error { return b.Add(good, 0) },
	} {
		if add() == nil {
			t.Errorf("%s: accepted", what)
		}
	}
	if err := b.Add(good, 2); err != nil {
		t.Fatal(err)
	}
	b.Done()
	if tbl.Cardinality() != 2 || countOf(tbl, row(1, "a")) != 2 {
		t.Errorf("after the refusals the table holds %v", tbl.SortedRows())
	}
}

// restoreGroup builds one group into at from a state that another handle
// may hold: a build takes over the accumulators it is given, so it gets
// clones.
func restoreGroup(t *testing.T, at *Table, key string, support int64, accums []delta.Accum) {
	t.Helper()
	owned := make([]*delta.Accum, len(accums))
	for i := range accums {
		c := accums[i].Clone()
		owned[i] = &c
	}
	b := at.BuildGroups(1)
	if err := b.Add([]byte(key), support, owned); err != nil {
		t.Fatal(err)
	}
	b.Done()
}

// TestAggBuildEqualsOneByOne: an aggregate build of several groups holds
// what building them one at a time does — the first into an empty table,
// whose map it fills, the rest group by group — a group given twice
// keeping its last state, whether the table was empty or held groups.
func TestAggBuildEqualsOneByOne(t *testing.T) {
	state := func(total float64, n int64) (accums []*delta.Accum) {
		p := delta.NewGroupPartials(groupSchema, sumSpecs)
		accumulate(p, "x", total, n)
		p.Scan(func(_ string, gp *delta.GroupPartial) bool {
			accums = gp.Accums
			return true
		})
		return accums
	}
	restore := func(at *Table, key string, support int64, accums []*delta.Accum) {
		vals := make([]delta.Accum, len(accums))
		for i, a := range accums {
			vals[i] = *a
		}
		restoreGroup(t, at, key, support, vals)
	}
	key := func(g string) string { return relation.Tuple{relation.NewString(g)}.Encode() }
	for _, held := range []bool{false, true} {
		built, want := newAgg(), newAgg()
		if held {
			restore(built, key("a"), 7, state(7, 7))
			restore(want, key("a"), 7, state(7, 7))
		}
		b := built.BuildGroups(3)
		for i, g := range []string{"a", "b", "a"} {
			if err := b.Add([]byte(key(g)), int64(i+1), state(float64(i), int64(i+1))); err != nil {
				t.Fatal(err)
			}
			restore(want, key(g), int64(i+1), state(float64(i), int64(i+1)))
		}
		b.Done()
		if got, exp := built.SortedRows(), want.SortedRows(); !ApproxEqualRows(got, exp, 0) || built.Digest() != want.Digest() {
			t.Errorf("held=%v: built %v, one by one %v", held, got, exp)
		}
		if err := built.CheckDigest(); err != nil {
			t.Errorf("held=%v: %v", held, err)
		}
	}
}

// TestBulkBuildRetention is the bound the Builder's doc states: a table
// holds at most the bytes of its bulk build plus the rows inserted since,
// however many rows it has deleted. LINEITEM's rows are built, and a clone
// — the handle a window writes — deletes all but one row of every chunk
// before the built handle is dropped: every chunk's string and slab stay
// allocated for the row each still holds, so the survivors, 1 in slabRows
// of the rows, hold about what the whole build did, and no more. The slack
// is the allocator's rounding of the buckets the deletes copied one by one.
func TestBulkBuildRetention(t *testing.T) {
	base := heapAlloc()
	tbl := NewTable(lineItemSchema)
	b := tbl.Build(benchRows)
	for i := int64(0); i < benchRows; i++ {
		if err := b.Add(lineItemRow(i).AppendEncoded(nil), 1); err != nil {
			t.Fatal(err)
		}
	}
	b.Done()
	built := heapAlloc() - base

	kept := tbl.Clone()
	tbl = nil
	d := delta.New(lineItemSchema)
	for i := int64(0); i < benchRows; i++ {
		if i%slabRows != 0 {
			d.Add(lineItemRow(i), -1)
		}
	}
	d.Seal()
	if _, err := kept.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	d = nil
	held := heapAlloc() - base
	runtime.KeepAlive(kept)
	t.Logf("built %d rows into %.2f MB; %d rows kept, one a chunk, hold %.2f MB",
		benchRows, float64(built)/1e6, kept.DistinctCount(), float64(held)/1e6)
	if want := (benchRows + slabRows - 1) / slabRows; kept.DistinctCount() != int64(want) {
		t.Fatalf("%d rows kept, want %d", kept.DistinctCount(), want)
	}
	if float64(held) > 1.05*float64(built) {
		t.Errorf("the kept rows hold %d bytes, more than the %d bytes the build held", held, built)
	}
}

// TestSummaryTableRetention: a summary table stops growing once its bulk
// build's retention is reached, however many windows change it. The groups
// are built in bulk (AggBuilder), then 400 windows each change a random 1 %
// of them through a clone, as an update window does, and the old handle is
// dropped. By window 200 most groups have changed and
// every chunk of the build is still held by a row not changed since (the
// Builder's retention); from there the table holds its live rows and
// groups, and little more. Apply allocates each new row on its own, so a
// row that outlives its window keeps none of that window's other rows
// alive: were a window's new rows gathered into shared chunks, each row
// unchanged since would keep its window's chunk, and the table would grow
// by a chunk a window.
func TestSummaryTableRetention(t *testing.T) {
	const groups = 4000
	key := func(g int) string { return relation.Tuple{relation.NewString(fmt.Sprintf("group-%05d", g))}.Encode() }
	base := heapAlloc()
	s := newAgg()
	b := s.BuildGroups(groups)
	for g := 0; g < groups; g++ {
		total, n := delta.NewAccum(sumSpecs[0]), delta.NewAccum(sumSpecs[1])
		total.Add(relation.NewFloat(1), 1)
		n.Add(relation.Null, 1)
		if err := b.Add([]byte(key(g)), 1, []*delta.Accum{total, n}); err != nil {
			t.Fatal(err)
		}
	}
	b.Done()
	rng := rand.New(rand.NewSource(1))
	var steady uint64
	for win := 1; win <= 400; win++ {
		p := delta.NewGroupPartials(groupSchema, sumSpecs)
		for i := 0; i < groups/100; i++ {
			accumulate(p, fmt.Sprintf("group-%05d", rng.Intn(groups)), float64(win), 1)
		}
		c := s.Clone()
		if _, _, err := c.Apply(p, nil); err != nil {
			t.Fatal(err)
		}
		s = c
		if win == 200 {
			steady = heapAlloc() - base
		}
	}
	held := heapAlloc() - base
	runtime.KeepAlive(s)
	if err := s.CheckDigest(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d groups hold %.2f MB after 200 windows, %.2f MB after 400", groups, float64(steady)/1e6, float64(held)/1e6)
	if float64(held) > 1.1*float64(steady) {
		t.Errorf("after 400 windows the table holds %d bytes, more than 1.1× the %d they held after 200", held, steady)
	}
}

package storage

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/delta"
	"repro/internal/relation"
)

// Layer benchmarks of the row store, over rows shaped like TPC-D LINEITEM
// as internal/tpcd generates it (three integers, two floats, a one-letter
// flag, a date: a 64-byte key). Run with -benchmem; every benchmark also
// reports ns/row.

var lineItemSchema = relation.Schema{
	{Name: "L_ORDERKEY", Kind: relation.KindInt},
	{Name: "L_LINENUMBER", Kind: relation.KindInt},
	{Name: "L_SUPPKEY", Kind: relation.KindInt},
	{Name: "L_EXTENDEDPRICE", Kind: relation.KindFloat},
	{Name: "L_DISCOUNT", Kind: relation.KindFloat},
	{Name: "L_RETURNFLAG", Kind: relation.KindString},
	{Name: "L_SHIPDATE", Kind: relation.KindDate},
}

const benchRows = 24_000 // LINEITEM at the repo benchmark's SF 0.004

func lineItemRow(i int64) relation.Tuple {
	return relation.Tuple{
		relation.NewInt(i / 4), relation.NewInt(i % 4), relation.NewInt(i % 40),
		relation.NewFloat(900 + float64(i%10_000)/4), relation.NewFloat(float64(i%11) / 100),
		relation.NewString("ANR"[i%3 : i%3+1]), relation.NewDate(9000 + i%2400),
	}
}

func lineItemTable(n int64) *Table {
	t := NewTable(lineItemSchema)
	for i := int64(0); i < n; i++ {
		t.Insert(lineItemRow(i), 1)
	}
	return t
}

func reportPerRow(b *testing.B, rows int64) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*rows), "ns/row")
}

func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// BenchmarkTableScan is one operand scan of LINEITEM. B/row is the
// resident size of the loaded table per row: keys, decoded tuples, map.
func BenchmarkTableScan(b *testing.B) {
	before := heapAlloc()
	t := lineItemTable(benchRows)
	resident := heapAlloc() - before
	var sum int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Scan(func(tup relation.Tuple, count int64) bool {
			sum += tup[0].Int() * count
			return true
		})
	}
	reportPerRow(b, benchRows)
	b.ReportMetric(float64(resident)/benchRows, "B/row")
	runtime.KeepAlive(t)
}

// benchBatch is the repo benchmark's batch shape over LINEITEM — 0.5 % of
// the rows deleted, 0.5 % inserted — and the batch that undoes it.
func benchBatch() (d, undo *delta.Delta) {
	const half = benchRows / 200
	d = delta.New(lineItemSchema)
	for i := int64(0); i < half; i++ {
		d.Add(lineItemRow(i*7), -1)
		d.Add(lineItemRow(benchRows+i), 1)
	}
	d.Seal()
	return d, negate(d)
}

// negate returns the sealed delta that undoes d, itself sealed.
func negate(d *delta.Delta) *delta.Delta {
	out := delta.New(d.Schema())
	d.Scan(func(tup relation.Tuple, count int64) bool {
		out.Add(tup, -count)
		return true
	})
	out.Seal()
	return out
}

// BenchmarkTableCloneDetach is what a window pays to get a LINEITEM it may
// write: an O(1) clone, then whatever its writes have to copy — for one
// inserted row, and for the benchmark's 1 % batch (ns/row and B/op there
// are per changed row and per window; the copy must be a fraction of the
// table, not the table).
func BenchmarkTableCloneDetach(b *testing.B) {
	t := lineItemTable(benchRows)
	b.Run("row=1", func(b *testing.B) {
		extra := lineItemRow(benchRows)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := t.Clone()
			c.Insert(extra, 1)
		}
		reportPerRow(b, 1)
	})
	b.Run("batch=1pct", func(b *testing.B) {
		d, _ := benchBatch()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := t.Clone()
			if _, err := c.ApplyDelta(d); err != nil {
				b.Fatal(err)
			}
		}
		reportPerRow(b, d.Size())
	})
}

// BenchmarkTableLoad is what set-up pays per table: a bulk build of 24 000
// rows into an empty table, each row encoded once as LoadBase encodes it.
func BenchmarkTableLoad(b *testing.B) {
	rows := make([]relation.Tuple, benchRows)
	for i := range rows {
		rows[i] = lineItemRow(int64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var enc []byte
	for i := 0; i < b.N; i++ {
		bb := NewTable(lineItemSchema).Build(len(rows))
		for _, r := range rows {
			enc = r.AppendEncoded(enc[:0])
			if err := bb.Add(enc, 1); err != nil {
				b.Fatal(err)
			}
		}
		bb.Done()
	}
	reportPerRow(b, benchRows)
}

// BenchmarkAggApply is a window's install into a summary view: clone, then
// a batch that changes 1 % of the groups — of a SUM/COUNT view with one
// group per LINEITEM order, and of a view whose single group is the MAX of
// 24 000 values, to which the batch adds 1 % and takes as many away.
func BenchmarkAggApply(b *testing.B) {
	const touched = benchRows / 100
	groupBy := relation.Schema{{Name: "g", Kind: relation.KindInt}}
	run := func(b *testing.B, specs []delta.AggSpec, names []string, groupOf func(i int64) int64, installed, batch func(i int64) (relation.Value, int64)) {
		t := newSummary(groupBy, specs, names...)
		load := delta.NewGroupPartials(groupBy, specs)
		inputs := make([]relation.Value, len(specs))
		fill := func(p *delta.GroupPartials, n int64, row func(i int64) (relation.Value, int64)) {
			for i := int64(0); i < n; i++ {
				v, count := row(i)
				for j := range inputs {
					inputs[j] = v
				}
				p.Accumulate(relation.Tuple{relation.NewInt(groupOf(i))}, inputs, count)
			}
		}
		fill(load, benchRows, installed)
		if _, _, err := t.Apply(load, nil); err != nil {
			b.Fatal(err)
		}
		p := delta.NewGroupPartials(groupBy, specs)
		fill(p, touched, batch)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := t.Clone()
			if _, _, err := c.Apply(p, nil); err != nil {
				b.Fatal(err)
			}
		}
		reportPerRow(b, touched)
	}
	b.Run("sum-count", func(b *testing.B) {
		specs := []delta.AggSpec{{Kind: delta.AggSum, ValueKind: relation.KindFloat}, {Kind: delta.AggCount}}
		row := func(i int64) (relation.Value, int64) { return relation.NewFloat(float64(i % 97)), 1 }
		run(b, specs, []string{"total", "n"}, func(i int64) int64 { return i }, row, row)
	})
	b.Run("max", func(b *testing.B) {
		specs := []delta.AggSpec{{Kind: delta.AggMax, ValueKind: relation.KindInt}}
		installed := func(i int64) (relation.Value, int64) { return relation.NewInt(i), 1 }
		batch := func(i int64) (relation.Value, int64) {
			if i%2 == 0 {
				return relation.NewInt(i * 7), -1 // an installed value, not the maximum
			}
			return relation.NewInt(benchRows + i), 1
		}
		run(b, specs, []string{"top"}, func(int64) int64 { return 0 }, installed, batch)
	})
}

// BenchmarkApplyDelta installs the repo benchmark's batch shape — 0.5 % of
// the rows deleted, 0.5 % inserted — into a private LINEITEM.
func BenchmarkApplyDelta(b *testing.B) {
	t := lineItemTable(benchRows)
	d, undo := benchBatch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := t.ApplyDelta(d); err != nil {
			b.Fatal(err)
		}
		if _, err := t.ApplyDelta(undo); err != nil {
			b.Fatal(err)
		}
	}
	reportPerRow(b, 2*d.Size()) // two installs
}

// BenchmarkIndexBuild is what the first probe of a join step pays when the
// table holds no index for it yet: one scan of LINEITEM into an index on
// L_ORDERKEY, four rows a key. B/row is the index's resident size per row.
func BenchmarkIndexBuild(b *testing.B) {
	t := lineItemTable(benchRows)
	before := heapAlloc()
	keep, _ := t.Clone().JoinIndex([]int{0})
	resident := heapAlloc() - before
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Clone().JoinIndex([]int{0})
	}
	reportPerRow(b, benchRows)
	b.ReportMetric(float64(resident)/benchRows, "B/row")
	runtime.KeepAlive(keep)
}

// BenchmarkIndexApply is BenchmarkTableCloneDetach/batch=1pct — clone, then
// the repo benchmark's 1 % batch — on a LINEITEM that carries join indexes:
// a unique one (L_ORDERKEY, L_LINENUMBER), one of four rows a key
// (L_ORDERKEY), one of six hundred (L_SUPPKEY), and what TPC-D's joins ask
// of LINEITEM — (L_ORDERKEY) alone, which every step that binds it probes.
// The table has installed a batch and its undo before the clones are timed,
// as every window after the first finds it: where it holds the index on
// L_ORDERKEY its rows are placed by that column and the row map serves it.
// lineitem-first clones a table that was never written instead, so its
// window also adopts that index's map as the row map. ns/row and B/op are
// per changed row and per window; the difference from the unindexed
// benchmark is the indexes' upkeep.
func BenchmarkIndexApply(b *testing.B) {
	for _, c := range indexApplyCases {
		b.Run(c.name, func(b *testing.B) {
			t, d := indexApplyTable(c.cols, c.first)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := t.Clone()
				if _, err := c.ApplyDelta(d); err != nil {
					b.Fatal(err)
				}
			}
			reportPerRow(b, d.Size())
		})
	}
}

// BenchmarkWideFirstColumn prices a wide index on column 0 — 16, 64 and 600
// rows a key, LINEITEM's rows under a first column of that fan-out — after
// a batch and its undo, its rows placed by that column and served by the
// row map. apply is BenchmarkIndexApply's window (ns/row per changed row,
// B/op per window), probe one probe of a key (ns/row per row it yields).
func BenchmarkWideFirstColumn(b *testing.B) {
	for _, fan := range []int64{16, 64, 600} {
		t, d := wideFirstColumnTable(fan)
		ix, _ := t.JoinIndex([]int{0})
		name := fmt.Sprintf("fanout=%d", fan)
		b.Run("apply/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := t.Clone().ApplyDelta(d); err != nil {
					b.Fatal(err)
				}
			}
			reportPerRow(b, d.Size())
		})
		b.Run("probe/"+name, func(b *testing.B) {
			var key []byte
			var rows int64
			for i := 0; i < b.N; i++ {
				key = relation.Tuple{relation.NewInt(int64(i) % (benchRows / fan))}.AppendEncoded(key[:0])
				ix.Probe(key, func(_ relation.Tuple, count int64) bool {
					rows += count
					return true
				})
			}
			reportPerRow(b, fan)
		})
	}
}

// wideFirstColumnTable is LINEITEM with fan rows a key in column 0 and an
// index there, and a 1 % batch, which it has installed and undone.
func wideFirstColumnTable(fan int64) (*Table, *delta.Delta) {
	keys := benchRows / fan
	row := func(i int64) relation.Tuple {
		r := lineItemRow(i)
		r[0], r[1] = relation.NewInt(i%keys), relation.NewInt(i)
		return r
	}
	t := NewTable(lineItemSchema)
	for i := int64(0); i < benchRows; i++ {
		t.Insert(row(i), 1)
	}
	t.JoinIndex([]int{0})
	d := delta.New(lineItemSchema)
	for i := int64(0); i < benchRows/200; i++ {
		d.Add(row(i*7), -1)
		d.Add(row(benchRows+i), 1)
	}
	d.Seal()
	for _, batch := range []*delta.Delta{d, negate(d)} {
		if _, err := t.ApplyDelta(batch); err != nil {
			panic(err)
		}
	}
	if t.placed == 0 {
		panic(fmt.Sprintf("storage: a table of %d rows a key is not placed", fan))
	}
	return t, d
}

var indexApplyCases = []struct {
	name  string
	cols  [][]int // the join indexes requested, in order
	first bool    // the first window after load
}{
	{"unique", [][]int{{0, 1}}, false},
	{"fanout=4", [][]int{{0}}, false},
	{"fanout=600", [][]int{{2}}, false},
	{"lineitem", [][]int{{0}}, false},
	{"lineitem-first", [][]int{{0}}, true},
}

// indexApplyTable is LINEITEM with the join indexes requested on cols, and
// the repo benchmark's 1 % batch. Unless first is set, the table has
// installed that batch and its undo: what a window's clone finds once the
// windows before it have settled the rows' placement.
func indexApplyTable(cols [][]int, first bool) (*Table, *delta.Delta) {
	t := lineItemTable(benchRows)
	for _, c := range cols {
		t.JoinIndex(c)
	}
	d, undo := benchBatch()
	if !first {
		if _, err := t.ApplyDelta(d); err != nil {
			panic(err)
		}
		if _, err := t.ApplyDelta(undo); err != nil {
			panic(err)
		}
	}
	return t, d
}

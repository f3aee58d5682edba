package storage

import (
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
	return d, d.Negate()
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
			if err := c.ApplyDelta(d); err != nil {
				b.Fatal(err)
			}
		}
		reportPerRow(b, d.Size())
	})
}

// BenchmarkTableLoad is what set-up pays per table: 24 000 inserts into an
// empty table of unknown final size.
func BenchmarkTableLoad(b *testing.B) {
	rows := make([]relation.Tuple, benchRows)
	for i := range rows {
		rows[i] = lineItemRow(int64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := NewTable(lineItemSchema)
		for _, r := range rows {
			t.Insert(r, 1)
		}
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
		t := NewAggTable(groupBy, specs, names)
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
		if err := t.Apply(load); err != nil {
			b.Fatal(err)
		}
		p := delta.NewGroupPartials(groupBy, specs)
		fill(p, touched, batch)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := t.Clone()
			if err := c.Apply(p); err != nil {
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
		if err := t.ApplyDelta(d); err != nil {
			b.Fatal(err)
		}
		if err := t.ApplyDelta(undo); err != nil {
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
// (L_ORDERKEY), one of six hundred (L_SUPPKEY, whose every changed row
// replaces a posting of 14 kB), and what TPC-D's joins ask of LINEITEM —
// (L_ORDERKEY) and (L_ORDERKEY, L_SUPPKEY), which the first serves. ns/row
// and B/op are per changed row and per window; the difference from the
// unindexed benchmark is the indexes' upkeep.
func BenchmarkIndexApply(b *testing.B) {
	for _, c := range indexApplyCases {
		b.Run(c.name, func(b *testing.B) {
			t, d := indexApplyTable(c.cols)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := t.Clone()
				if err := c.ApplyDelta(d); err != nil {
					b.Fatal(err)
				}
			}
			reportPerRow(b, d.Size())
		})
	}
}

var indexApplyCases = []struct {
	name string
	cols [][]int // the join indexes requested, in order
}{
	{"unique", [][]int{{0, 1}}},
	{"fanout=4", [][]int{{0}}},
	{"fanout=600", [][]int{{2}}},
	{"lineitem", [][]int{{0}, {0, 2}}},
}

// indexApplyTable is LINEITEM with the join indexes requested on cols, and
// the repo benchmark's 1 % batch.
func indexApplyTable(cols [][]int) (*Table, *delta.Delta) {
	t := lineItemTable(benchRows)
	for _, c := range cols {
		t.JoinIndex(c)
	}
	d, _ := benchBatch()
	return t, d
}

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

// BenchmarkTableCloneDetach is what a window pays to get a private
// LINEITEM: an O(1) clone, then the copy its first write forces.
func BenchmarkTableCloneDetach(b *testing.B) {
	t := lineItemTable(benchRows)
	extra := lineItemRow(benchRows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := t.Clone()
		c.Insert(extra, 1)
	}
	reportPerRow(b, benchRows)
}

// BenchmarkApplyDelta installs the repo benchmark's batch shape — 0.5 % of
// the rows deleted, 0.5 % inserted — into a private LINEITEM.
func BenchmarkApplyDelta(b *testing.B) {
	t := lineItemTable(benchRows)
	const half = benchRows / 200
	d := delta.New(lineItemSchema)
	for i := int64(0); i < half; i++ {
		d.Add(lineItemRow(i*7), -1)
		d.Add(lineItemRow(benchRows+i), 1)
	}
	undo := d.Negate()
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
	reportPerRow(b, 4*half) // two installs of 2·half rows each
}

package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/delta"
	"repro/internal/maintain"
	"repro/internal/relation"
	"repro/internal/storage"
)

// benchWarehouse builds R ⋈ S with n rows per base and a staged delta of
// n/10 changes.
func benchWarehouse(b *testing.B, n int) *Warehouse {
	b.Helper()
	w := New(Options{})
	if err := w.DefineBase("R", schemaR); err != nil {
		b.Fatal(err)
	}
	if err := w.DefineBase("S", schemaS); err != nil {
		b.Fatal(err)
	}
	jb := algebra.NewBuilder().From("r", "R", schemaR).From("s", "S", schemaS)
	jb.Join("r.b", "s.b").SelectCol("r.a").SelectCol("s.c")
	if err := w.DefineDerived("J", jb.MustBuild()); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var rRows, sRows []relation.Tuple
	for i := 0; i < n; i++ {
		rRows = append(rRows, intRow(int64(i), rng.Int63n(int64(n/4+1))))
		sRows = append(sRows, intRow(rng.Int63n(int64(n/4+1)), int64(i)))
	}
	if err := w.LoadBase("R", rRows); err != nil {
		b.Fatal(err)
	}
	if err := w.LoadBase("S", sRows); err != nil {
		b.Fatal(err)
	}
	if err := w.RefreshAll(); err != nil {
		b.Fatal(err)
	}
	d := delta.New(schemaR)
	for i := 0; i < n/10; i++ {
		d.Add(intRow(int64(n+i), rng.Int63n(int64(n/4+1))), 1)
	}
	if err := w.StageDelta("R", d); err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkComputeScaling measures 1-way Comp cost as base size grows.
func BenchmarkComputeScaling(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		w := benchWarehouse(b, n)
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run := w.Clone()
				if _, err := run.Compute("J", []string{"R"}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInstallScaling measures install throughput.
func BenchmarkInstallScaling(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		w := benchWarehouse(b, n)
		b.Run(fmt.Sprintf("delta=%d", n/10), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run := w.Clone()
				if _, err := run.Install("R"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecomputeVsIncremental contrasts a full view rebuild against the
// incremental window for the same change batch — the reason incremental
// maintenance exists.
func BenchmarkRecomputeVsIncremental(b *testing.B) {
	w := benchWarehouse(b, 5000)
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run := w.Clone()
			if _, err := run.Compute("J", []string{"R"}); err != nil {
				b.Fatal(err)
			}
			if _, err := run.Install("R"); err != nil {
				b.Fatal(err)
			}
			if _, err := run.Install("J"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("recompute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run := w.Clone()
			if _, err := run.Install("R"); err != nil {
				b.Fatal(err)
			}
			if err := run.RefreshAll(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSpillBuild measures the raw spill machinery: partition a build's
// rows to CRC-framed spill files, then load every partition back as a hash
// table — one full Grace-style write + probe-load round trip.
func BenchmarkSpillBuild(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		rows := make([]prow, n)
		for i := range rows {
			rows[i] = prow{row: intRow(int64(i), int64(i)), count: 1}
		}
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			w := New(Options{MemoryBudgetBytes: 64 << 10})
			if !w.AttachMemory(b.TempDir(), nil) {
				b.Fatal("AttachMemory = false")
			}
			defer w.DetachMemory()
			env := &evalEnv{ctx: context.Background(), mem: w.mem}
			est := estimateRowsBytes(rows)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sb, err := w.mem.spill(env, rows, []int{1}, est)
				if err != nil {
					b.Fatal(err)
				}
				for k := range sb.parts {
					bt, g, err := sb.loadPart(env, k)
					if err != nil {
						b.Fatal(err)
					}
					_ = bt
					g.Release()
				}
			}
		})
	}
}

// BenchmarkBoundedWindow contrasts the same update window run fully
// resident and under a budget that forces its one transient build — the
// second delta of the two-delta term; the states are read through resident
// indexes — through the spill path: the wall-clock price of bounded memory.
func BenchmarkBoundedWindow(b *testing.B) {
	const n = 10000
	for _, budget := range []int64{0, 64 << 10} {
		label := "unbounded"
		if budget > 0 {
			label = fmt.Sprintf("budget=%dKiB", budget>>10)
		}
		b.Run(label, func(b *testing.B) {
			w := benchWarehouse(b, n)
			w.opts.MemoryBudgetBytes = budget
			d := delta.New(schemaS)
			for i := int64(0); i < n/10; i++ {
				d.Add(intRow(i%(n/4+1), n+i), 1)
			}
			if err := w.StageDelta("S", d); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run := w.Clone()
				if budget > 0 {
					if !run.AttachMemory("", nil) {
						b.Fatal("AttachMemory = false")
					}
				}
				if _, err := run.Compute("J", []string{"R", "S"}); err != nil {
					b.Fatal(err)
				}
				for _, v := range []string{"R", "S", "J"} {
					if _, err := run.Install(v); err != nil {
						b.Fatal(err)
					}
				}
				if budget > 0 {
					if ms := run.DetachMemory(); ms.SpillCount == 0 {
						b.Fatal("bounded window never spilled")
					}
				}
			}
		})
	}
}

// buildBenchRows is the build side of the two layer benchmarks below: n
// two-column integer rows, four to a key.
func buildBenchRows(n int) []prow {
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i / 4)
	}
	return intRows(keys...)
}

// BenchmarkBuildTable hashes one materialized operand scan on its first
// column — the build half of a join step. Run with -benchmem: allocs/op
// must not grow with the row count.
func BenchmarkBuildTable(b *testing.B) {
	for _, n := range []int{1_000, 24_000} {
		rows := buildBenchRows(n)
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				newBuildTable(rows, []int{0})
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
		})
	}
}

// BenchmarkProbe pushes one driver row per build row through a one-step
// pipeline — encode the key, walk the chain, verify, emit four matches —
// into a sink that only counts.
func BenchmarkProbe(b *testing.B) {
	const n = 24_000
	read := readAll(3)
	step := joinStep{roff: 1, live: liveColumns(read, 1, 2), build: newBuildTable(buildBenchRows(n), []int{0}), keys: []equiKey{{boundCol: 0, newCol: 1}}}
	p := pipeline{live: liveColumns(read, 0, 1), width: 3, steps: []joinStep{step}}
	driver := make([]prow, n)
	for i := range driver {
		driver[i] = prow{row: relation.Tuple{relation.NewInt(int64(i % (n / 4)))}, count: 1}
	}
	var matched int64
	sink := func(_ relation.Tuple, count int64) { matched += count }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.runMorsel(driver, sink)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
}

// BenchmarkIndexProbe is BenchmarkProbe with the same rows in a table read
// through its resident join index: encode the key, find the posting, emit
// each of the four rows it carries. ns/row is per probe.
func BenchmarkIndexProbe(b *testing.B) {
	const n = 24_000
	tbl := storage.NewTable(relation.Schema{{Name: "k", Kind: relation.KindInt}, {Name: "i", Kind: relation.KindInt}})
	for _, r := range buildBenchRows(n) {
		tbl.Insert(r.row, r.count)
	}
	read := readAll(3)
	step := joinStep{roff: 1, live: liveColumns(read, 1, 2), idx: &indexStep{tbl: tbl}, keys: []equiKey{{boundCol: 0, newCol: 1}}}
	p := pipeline{live: liveColumns(read, 0, 1), width: 3, steps: []joinStep{step}}
	driver := make([]prow, n)
	for i := range driver {
		driver[i] = prow{row: relation.Tuple{relation.NewInt(int64(i % (n / 4)))}, count: 1}
	}
	var matched int64
	sink := func(_ relation.Tuple, count int64) { matched += count }
	p.runMorsel(driver[:1], sink) // the first probe builds the index
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.runMorsel(driver, sink)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
}

// The TPC-D columns of the three operands of Q3, for BenchmarkIndexProbeChain.
var (
	chainCustomer = relation.Schema{
		{Name: "C_CUSTKEY", Kind: relation.KindInt}, {Name: "C_NAME", Kind: relation.KindString},
		{Name: "C_NATIONKEY", Kind: relation.KindInt}, {Name: "C_MKTSEGMENT", Kind: relation.KindString},
		{Name: "C_ACCTBAL", Kind: relation.KindFloat},
	}
	chainOrder = relation.Schema{
		{Name: "O_ORDERKEY", Kind: relation.KindInt}, {Name: "O_CUSTKEY", Kind: relation.KindInt},
		{Name: "O_ORDERDATE", Kind: relation.KindDate}, {Name: "O_SHIPPRIORITY", Kind: relation.KindInt},
		{Name: "O_TOTALPRICE", Kind: relation.KindFloat},
	}
	chainLineItem = relation.Schema{
		{Name: "L_ORDERKEY", Kind: relation.KindInt}, {Name: "L_LINENUMBER", Kind: relation.KindInt},
		{Name: "L_SUPPKEY", Kind: relation.KindInt}, {Name: "L_EXTENDEDPRICE", Kind: relation.KindFloat},
		{Name: "L_DISCOUNT", Kind: relation.KindFloat}, {Name: "L_RETURNFLAG", Kind: relation.KindString},
		{Name: "L_SHIPDATE", Kind: relation.KindDate},
	}
)

// BenchmarkIndexProbeChain drives 240 LINEITEM rows — a 1 % batch at the
// benchmark's 24 000 line items — through the term of Q3 that δLINEITEM
// drives: an index step on ORDER (6 000 rows, unique key), then one on
// CUSTOMER (600), as planTerm plans it — each match copied into the scratch
// row as far as the view reads it, the date and segment filters applied —
// into a sink that only counts. Every change passes the ship-date filter and
// so probes ORDER; about half the orders pass the order-date one and go on
// to CUSTOMER. ns/row is per driver row; the indexes are built before the
// clock starts.
func BenchmarkIndexProbeChain(b *testing.B) {
	const customers, orders, changes = 600, 6_000, 240
	w := New(Options{})
	for _, v := range []struct {
		name   string
		schema relation.Schema
	}{{"CUSTOMER", chainCustomer}, {"ORDER", chainOrder}, {"LINEITEM", chainLineItem}} {
		if err := w.DefineBase(v.name, v.schema); err != nil {
			b.Fatal(err)
		}
	}
	qb := algebra.NewBuilder().From("c", "CUSTOMER", chainCustomer).From("o", "ORDER", chainOrder).From("l", "LINEITEM", chainLineItem)
	qb.WhereEq("c.C_MKTSEGMENT", relation.NewString("BUILDING")).
		Join("c.C_CUSTKEY", "o.O_CUSTKEY").
		Join("l.L_ORDERKEY", "o.O_ORDERKEY").
		Where(&algebra.Binary{Op: algebra.OpLt, L: qb.Col("o.O_ORDERDATE"), R: &algebra.Const{Value: relation.MustDate("1995-03-15")}}).
		Where(&algebra.Binary{Op: algebra.OpGt, L: qb.Col("l.L_SHIPDATE"), R: &algebra.Const{Value: relation.MustDate("1995-03-15")}}).
		GroupByCol("l.L_ORDERKEY").GroupByCol("o.O_ORDERDATE").GroupByCol("o.O_SHIPPRIORITY").
		Agg("REVENUE", delta.AggSum, &algebra.Binary{Op: algebra.OpMul, L: qb.Col("l.L_EXTENDEDPRICE"),
			R: &algebra.Binary{Op: algebra.OpSub, L: &algebra.Const{Value: relation.NewFloat(1)}, R: qb.Col("l.L_DISCOUNT")}})
	q3 := qb.MustBuild()
	if err := w.DefineDerived("Q3", q3); err != nil {
		b.Fatal(err)
	}
	segments := []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	cust := make([]relation.Tuple, customers)
	for i := range cust {
		k := int64(i)
		cust[i] = relation.Tuple{relation.NewInt(k), relation.NewString(fmt.Sprintf("Customer#%09d", k)),
			relation.NewInt(k % 25), relation.NewString(segments[k%5]), relation.NewFloat(float64(k%1000) + 0.25)}
	}
	ord := make([]relation.Tuple, orders)
	for i := range ord {
		k := int64(i)
		ord[i] = relation.Tuple{relation.NewInt(k), relation.NewInt(k % customers),
			relation.NewDate(8_035 + k%2_405), relation.NewInt(k % 5), relation.NewFloat(float64(k%5_000) + 0.5)}
	}
	if err := w.LoadBase("CUSTOMER", cust); err != nil {
		b.Fatal(err)
	}
	if err := w.LoadBase("ORDER", ord); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	d := delta.New(chainLineItem)
	for i := int64(0); i < changes; i++ {
		d.Add(relation.Tuple{relation.NewInt(rng.Int63n(orders)), relation.NewInt(i % 7), relation.NewInt(rng.Int63n(40)),
			relation.NewFloat(float64(rng.Int63n(100_000)) / 4), relation.NewFloat(float64(rng.Int63n(8)) / 64),
			relation.NewString("N"), relation.NewDate(9_300 + rng.Int63n(400))}, 1)
	}
	plan, err := w.planTerm(q3, maintain.Term{DeltaRefs: []int{2}}, map[string]*delta.Delta{"LINEITEM": d})
	if err != nil {
		b.Fatal(err)
	}
	if len(plan.pl.steps) != 2 || plan.pl.steps[0].idx == nil || plan.pl.steps[1].idx == nil ||
		plan.pl.steps[0].idx.tbl != w.views["ORDER"].table || plan.pl.steps[1].idx.tbl != w.views["CUSTOMER"].table {
		b.Fatal("the δLINEITEM term of Q3 is not an index step on ORDER and then one on CUSTOMER")
	}
	rows := materializeScan(plan.driverSrc)
	var matched int64
	sink := func(_ relation.Tuple, count int64) { matched += count }
	plan.pl.runMorsel(rows, sink) // the first run builds both indexes
	if matched == 0 {
		b.Fatal("no driver row reached the sink")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.pl.runMorsel(rows, sink)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rows)), "ns/row")
}

package warehouse

// Serving-path benchmarks for the prepared-plan cache, measuring plan
// acquisition — the step the cache elides. BenchmarkQueryCold is the cold
// parse path every request pays without the cache: lex + parse + bind +
// validate through the same facade entry the serving path uses.
// BenchmarkQueryCached is the steady-state hit path: normalized map probe
// to the same bound plan, no front-end work at all — and no allocation, which
// TestPlanCacheHitAllocatesNothing holds as an ordinary test.
// BenchmarkQueryEndToEnd
// puts the pair in context: the full Query (prepare + evaluate + present),
// cold and cached, over the same shape.

import "testing"

// benchQuerySQL is the filter-heavy shape a dashboard or API endpoint
// repeats all day: one view, a long predicate list, aliases, and the
// presentation clauses.
const benchQuerySQL = `
	SELECT sale_id AS id, store_id, amount, day
	FROM SALES
	WHERE sale_id > 0 AND sale_id < 1000000 AND store_id >= 1 AND store_id <= 99
	  AND amount >= 1.0 AND amount <= 5000.0 AND NOT amount = 13.0
	  AND amount <> 17.5 AND day >= DATE '1999-01-01' AND day <= DATE '1999-12-31'
	  AND sale_id <> 31337 AND store_id <> 55 AND amount BETWEEN 0.5 AND 9000.0
	  AND sale_id BETWEEN 1 AND 2000000 AND NOT store_id = 77
	ORDER BY 3 DESC, id LIMIT 2 OFFSET 1`

func benchQueryWarehouse(b testing.TB) *Warehouse {
	b.Helper()
	w := New()
	w.MustDefineBase("SALES", Schema{
		{Name: "sale_id", Kind: KindInt},
		{Name: "store_id", Kind: KindInt},
		{Name: "amount", Kind: KindFloat},
		{Name: "day", Kind: KindDate},
	})
	if err := w.Load("SALES", []Tuple{
		{Int(100), Int(1), Float(10), Date("1999-03-01")},
		{Int(101), Int(1), Float(20), Date("1999-03-02")},
		{Int(102), Int(2), Float(5), Date("1999-03-03")},
	}); err != nil {
		b.Fatal(err)
	}
	if err := w.Refresh(); err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkQueryCold: plan acquisition with the cache disabled — the full
// front end runs on every request.
func BenchmarkQueryCold(b *testing.B) {
	w := benchQueryWarehouse(b)
	w.SetPlanCache(0)
	p := w.PinEpoch()
	defer p.Close()
	c := p.pin.Warehouse()
	if _, err := w.prepareQuery(c, benchQuerySQL); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.prepareQuery(c, benchQuerySQL); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryCached: plan acquisition on the steady-state hit path —
// one normalized, zero-copy map probe straight to the bound plan.
func BenchmarkQueryCached(b *testing.B) {
	w := benchQueryWarehouse(b)
	p := w.PinEpoch()
	defer p.Close()
	c := p.pin.Warehouse()
	if _, err := w.prepareQuery(c, benchQuerySQL); err != nil { // warm
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.prepareQuery(c, benchQuerySQL); err != nil {
			b.Fatal(err)
		}
	}
	if st := w.PlanCacheStats(); st.Hits < uint64(b.N) {
		b.Fatalf("cache went cold mid-benchmark: %+v", st)
	}
}

func TestPlanCacheHitAllocatesNothing(t *testing.T) {
	w := benchQueryWarehouse(t)
	p := w.PinEpoch()
	defer p.Close()
	c := p.pin.Warehouse()
	if _, err := w.prepareQuery(c, benchQuerySQL); err != nil { // warm
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := w.prepareQuery(c, benchQuerySQL); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("a plan-cache hit allocates %v times per run, want 0", n)
	}
	if st := w.PlanCacheStats(); st.Misses != 1 {
		t.Fatalf("cache went cold mid-test: %+v", st)
	}
}

// BenchmarkQueryEndToEnd contextualizes the pair: the whole serving path
// (prepare + evaluate + sort/limit), with and without the cache.
func BenchmarkQueryEndToEnd(b *testing.B) {
	run := func(b *testing.B, cacheSize int) {
		b.Helper()
		w := benchQueryWarehouse(b)
		w.SetPlanCache(cacheSize)
		if _, err := w.Query(benchQuerySQL); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := w.Query(benchQuerySQL); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("cold", func(b *testing.B) { run(b, 0) })
	b.Run("cached", func(b *testing.B) { run(b, DefaultPlanCacheSize) })
}

package warehouse

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/tpcd"
)

func TestQueryBasics(t *testing.T) {
	w := newRetail(t)
	rows, err := w.Query(`SELECT region, total FROM REGION_TOTALS ORDER BY total DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][0].Str() != "west" || rows[1][0].Str() != "east" {
		t.Errorf("order wrong: %v", rows)
	}
}

func TestQueryJoinFilterLimit(t *testing.T) {
	w := newRetail(t)
	rows, err := w.Query(`
		SELECT s.sale_id, st.region
		FROM SALES s, STORES st
		WHERE s.store_id = st.store_id AND s.amount >= 10.0
		ORDER BY sale_id LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Int() != 100 {
		t.Errorf("rows = %v", rows)
	}
}

func TestQueryAdHocAggregate(t *testing.T) {
	w := newRetail(t)
	rows, err := w.Query(`
		SELECT st.region, COUNT(*) AS n, MAX(s.amount) AS biggest
		FROM SALES s, STORES st
		WHERE s.store_id = st.store_id
		GROUP BY st.region
		ORDER BY biggest DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][0].Str() != "west" || rows[0][2].Float() != 20 {
		t.Errorf("rows = %v", rows)
	}
}

// TestQueryDuringUpdateWindow: a query never sees a window's installs view
// by view. It reads the pre-window epoch until the window commits — also
// after a window that ran part of its strategy and then failed — and the
// post-window epoch from the commit on. Readers running beside the window
// see one of the two, and an epoch pinned before the window keeps the
// pre-window rows after it.
func TestQueryDuringUpdateWindow(t *testing.T) {
	const sql = "SELECT region, total, n FROM REGION_TOTALS ORDER BY region"
	const pre, post = "(east, 5, 1) (west, 30, 2)", "(east, 55, 2) (west, 20, 1)"
	w := newRetail(t)
	stageSale(t, w)
	pin := w.PinEpoch()
	defer pin.Close()
	if got := queryString(t, w, sql); got != pre {
		t.Fatalf("before the window: %s, want %s", got, pre)
	}

	// The first two steps of the plan run on the window's clone; the
	// crash at the third ends the window without a commit.
	inj := NewFaultInjector(1)
	inj.CrashAt("step", 3)
	if _, err := w.RunWindowOpts(WindowOptions{Faults: inj}); err == nil {
		t.Fatal("a window that crashed at its third step committed")
	}
	if inj.Hits("step") < 3 {
		t.Fatalf("the crashed window reached %d step boundaries, want 3", inj.Hits("step"))
	}
	if got := queryString(t, w, sql); got != pre {
		t.Fatalf("after a window that ran two steps and crashed: %s, want %s", got, pre)
	}

	stop := make(chan struct{})
	seen := make(chan string, 4)
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rows, err := w.Query(sql)
				if err != nil {
					seen <- err.Error()
					return
				}
				if got := tupleString(rows); got != pre && got != post {
					seen <- got
					return
				}
			}
		}()
	}
	runIncremental(t, w, WindowOptions{Mode: ModeDAG, Workers: 2})
	close(stop)
	wg.Wait()
	close(seen)
	for got := range seen {
		t.Errorf("a query beside the window read %s, want %s or %s", got, pre, post)
	}
	if got := queryString(t, w, sql); got != post {
		t.Errorf("after the window: %s, want %s", got, post)
	}
	rows, err := pin.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if got := tupleString(rows); got != pre {
		t.Errorf("the epoch pinned before the window reads %s, want %s", got, pre)
	}
}

func TestQueryDuplicatesExpanded(t *testing.T) {
	w := New()
	w.MustDefineBase("B", Schema{{Name: "x", Kind: KindInt}})
	if err := w.Load("B", []Tuple{{Int(1)}, {Int(1)}, {Int(2)}}); err != nil {
		t.Fatal(err)
	}
	rows, err := w.Query("SELECT x FROM B ORDER BY x")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0][0].Int() != 1 || rows[1][0].Int() != 1 || rows[2][0].Int() != 2 {
		t.Errorf("rows = %v", rows)
	}
	// DISTINCT collapses them.
	rows, err = w.Query("SELECT DISTINCT x FROM B ORDER BY x")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("distinct rows = %v", rows)
	}
	// LIMIT 0 is allowed.
	rows, err = w.Query("SELECT x FROM B LIMIT 0")
	if err != nil || len(rows) != 0 {
		t.Errorf("LIMIT 0: %v, %v", rows, err)
	}
}

func TestQuerySchemaAndErrors(t *testing.T) {
	w := newRetail(t)
	s, err := w.QuerySchema("SELECT region, total FROM REGION_TOTALS")
	if err != nil {
		t.Fatal(err)
	}
	if s.String() != "region VARCHAR, total FLOAT" {
		t.Errorf("schema = %s", s)
	}
	bad := []string{
		"SELECT nope FROM REGION_TOTALS",
		"SELECT region FROM REGION_TOTALS ORDER BY nope",
		"SELECT region FROM REGION_TOTALS ORDER region",
		"SELECT region FROM REGION_TOTALS LIMIT x",
		"SELECT region FROM REGION_TOTALS LIMIT",
		"SELECT region FROM REGION_TOTALS x y",
	}
	for _, sql := range bad {
		if _, err := w.Query(sql); err == nil {
			t.Errorf("accepted %q", sql)
		}
		if _, err := w.QuerySchema(sql); err == nil {
			t.Errorf("QuerySchema accepted %q", sql)
		}
	}
}

func TestQueryOrderByMultipleKeys(t *testing.T) {
	w := New()
	w.MustDefineBase("B", Schema{{Name: "a", Kind: KindInt}, {Name: "b", Kind: KindInt}})
	if err := w.Load("B", []Tuple{
		{Int(1), Int(9)}, {Int(1), Int(3)}, {Int(2), Int(5)},
	}); err != nil {
		t.Fatal(err)
	}
	rows, err := w.Query("SELECT a, b FROM B ORDER BY a ASC, b DESC")
	if err != nil {
		t.Fatal(err)
	}
	want := "(1, 9)(1, 3)(2, 5)"
	got := ""
	for _, r := range rows {
		got += r.String()
	}
	if got != want {
		t.Errorf("order = %s, want %s", got, want)
	}
	if !strings.Contains(got, "(1, 9)") {
		t.Errorf("missing row")
	}
}

// referenceQuery is how evaluateQuery presented a result before it sorted
// the distinct rows once: the result goes into a table, whose rows are
// sorted and every duplicate expanded; ORDER BY then stable-sorts the
// copies, and OFFSET and LIMIT cut last. The presentation tests hold Query
// to it row for row.
func referenceQuery(w *Warehouse, sql string) ([]Tuple, error) {
	p := w.PinEpoch()
	defer p.Close()
	c := p.Internal()
	q, err := w.prepareQuery(c, sql)
	if err != nil {
		return nil, err
	}
	rows, err := c.Evaluate(q.CQ)
	if err != nil {
		return nil, err
	}
	tbl := storage.NewTable(q.CQ.OutputSchema())
	for _, r := range rows {
		tbl.Insert(r.Tuple, r.Count)
	}
	var out []Tuple
	for _, r := range tbl.SortedRows() {
		for i := int64(0); i < r.Count; i++ {
			out = append(out, r.Tuple)
		}
	}
	if len(q.OrderBy) > 0 {
		sort.SliceStable(out, func(i, j int) bool {
			for _, k := range q.OrderBy {
				c := relation.Compare(out[i][k.Column], out[j][k.Column])
				if c == 0 {
					continue
				}
				if k.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}
	if q.Offset > 0 {
		if q.Offset >= len(out) {
			out = out[:0]
		} else {
			out = out[q.Offset:]
		}
	}
	if q.Limit >= 0 && len(out) > q.Limit {
		out = out[:q.Limit]
	}
	return out, nil
}

// checkPresentation runs sql through Query and through referenceQuery and
// fails at the first row where the two differ.
func checkPresentation(t *testing.T, w *Warehouse, sql string) {
	t.Helper()
	got, err := w.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	want, err := referenceQuery(w, sql)
	if err != nil {
		t.Fatalf("%s: the reference: %v", sql, err)
	}
	for i := range min(len(got), len(want)) {
		if got[i].Encode() != want[i].Encode() {
			t.Fatalf("%s: row %d is %v, the reference gives %v", sql, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, the reference gives %d", sql, len(got), len(want))
	}
}

// presentation draws the clauses after a SELECT whose result is width
// columns wide: an ORDER BY list of distinct ordinals, each with or without
// a direction, or none; then a LIMIT, with or without an OFFSET, or none.
// pick(n) returns a choice in [0, n).
func presentation(pick func(n int) int, width int) string {
	var b strings.Builder
	if keys := pick(width + 1); keys > 0 {
		cols := make([]int, width)
		for i := range cols {
			cols[i] = i + 1
		}
		b.WriteString(" ORDER BY ")
		for i := range keys {
			j := i + pick(width-i)
			cols[i], cols[j] = cols[j], cols[i]
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%d%s", cols[i], []string{"", " ASC", " DESC"}[pick(3)])
		}
	}
	if limit := []int{-1, 0, 1, 2, 3, 5, 10, 1000}[pick(8)]; limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", limit)
		if offset := []int{0, 1, 2, 4, 7, 100}[pick(6)]; offset > 0 {
			fmt.Fprintf(&b, " OFFSET %d", offset)
		}
	}
	return b.String()
}

// presentationRetail is the retail catalog of bench/fixture.go (two base
// views, a join view, two summaries over it and a one-row watermark) over
// 2 000 sales drawn with math/rand seed 1, with amounts in quarter units so
// that sums are exact. bench is a separate module, so the catalog is copied
// here, as is BenchmarkServeQuery's in internal/serve.
func presentationRetail(t *testing.T) *Warehouse {
	t.Helper()
	w := New()
	w.MustDefineBase("STORES", Schema{{Name: "store_id", Kind: KindInt}, {Name: "region", Kind: KindString}})
	w.MustDefineBase("SALES", Schema{{Name: "sale_id", Kind: KindInt}, {Name: "store_id", Kind: KindInt}, {Name: "amount", Kind: KindFloat}})
	w.MustDefineViewSQL("SALES_BY_STORE", `SELECT s.sale_id, s.store_id, s.amount, st.region
		FROM SALES s, STORES st WHERE s.store_id = st.store_id`)
	w.MustDefineViewSQL("REGION_TOTALS", `SELECT region, SUM(amount) AS total, COUNT(*) AS n
		FROM SALES_BY_STORE GROUP BY region`)
	w.MustDefineViewSQL("STORE_TOTALS", `SELECT store_id, SUM(amount) AS total, COUNT(*) AS n
		FROM SALES_BY_STORE GROUP BY store_id`)
	w.MustDefineViewSQL("WATERMARK", `SELECT MAX(sale_id) AS wm FROM SALES`)
	regions := []string{"north", "south", "east", "west"}
	var stores, sales []Tuple
	for i := range 16 {
		stores = append(stores, Tuple{Int(int64(i + 1)), String(regions[i%len(regions)])})
	}
	rng := rand.New(rand.NewSource(1))
	for i := range 2000 {
		sales = append(sales, Tuple{Int(int64(i + 1)), Int(int64(rng.Intn(16) + 1)), Float(float64(rng.Intn(10000)) / 4)})
	}
	if err := w.Load("STORES", stores); err != nil {
		t.Fatal(err)
	}
	if err := w.Load("SALES", sales); err != nil {
		t.Fatal(err)
	}
	if err := w.Refresh(); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestQueryPresentationMatchesReference holds Query to referenceQuery on
// every query kind of the two query mixes of bench/fixture.go, TPC-D and
// retail (plan_miss with a fixed number), and on drawn ORDER BY, LIMIT and
// OFFSET clauses over select lists of those catalogs, duplicates included.
func TestQueryPresentationMatchesReference(t *testing.T) {
	tw, err := tpcd.NewWarehouse(tpcd.Config{SF: 0.001, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mixes := []struct {
		name    string
		w       *Warehouse
		kinds   []string
		selects []string
	}{
		{"tpcd", FromCore(tw.W), []string{
			"SELECT N_NAME, REVENUE FROM Q5",
			"SELECT L_ORDERKEY, REVENUE FROM Q3 ORDER BY REVENUE DESC LIMIT 10",
			"SELECT C_CUSTKEY, REVENUE FROM Q10 WHERE REVENUE > 100000",
			"SELECT C_MKTSEGMENT, COUNT(*) AS n FROM CUSTOMER GROUP BY C_MKTSEGMENT",
			"SELECT N_NAME FROM Q5 WHERE REVENUE > 40000",
		}, []string{
			"SELECT L_ORDERKEY, REVENUE FROM Q3",
			"SELECT O_SHIPPRIORITY, O_ORDERDATE FROM Q3",
			"SELECT C_MKTSEGMENT, C_NATIONKEY FROM CUSTOMER",
			"SELECT N_NAME, C_ACCTBAL, REVENUE FROM Q10",
		}},
		{"retail", presentationRetail(t), []string{
			"SELECT region, total, n FROM REGION_TOTALS",
			"SELECT store_id, total FROM STORE_TOTALS ORDER BY total DESC LIMIT 10",
			"SELECT sale_id, amount FROM SALES_BY_STORE WHERE region = 'north' AND amount > 2490",
			"SELECT store_id, COUNT(*) AS n FROM SALES GROUP BY store_id",
			"SELECT region, total FROM REGION_TOTALS WHERE total > 300000",
		}, []string{
			"SELECT store_id, total, n FROM STORE_TOTALS",
			"SELECT region, store_id FROM SALES_BY_STORE",
			"SELECT store_id FROM SALES",
			"SELECT region, COUNT(*) AS n FROM SALES_BY_STORE GROUP BY region",
		}},
	}
	rng := rand.New(rand.NewSource(1))
	for _, m := range mixes {
		t.Run(m.name, func(t *testing.T) {
			for _, sql := range m.kinds {
				checkPresentation(t, m.w, sql)
			}
			for _, sel := range m.selects {
				schema, err := m.w.QuerySchema(sel)
				if err != nil {
					t.Fatal(err)
				}
				for range 16 {
					checkPresentation(t, m.w, sel+presentation(rng.Intn, len(schema)))
				}
			}
		})
	}
}

// FuzzQueryPresentation holds Query to referenceQuery over drawn rows —
// NULLs, NaN, −0 and infinities, strings, each row loaded one to five
// times — under a drawn select list and drawn ORDER BY, LIMIT and OFFSET
// clauses. Every choice is a byte of the input.
func FuzzQueryPresentation(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 0, 1, 2, 3, 1, 2, 0, 4, 2, 3, 1, 0, 1, 2, 2, 1, 4, 1, 2, 3})
	f.Add([]byte{9, 1, 2, 3, 4, 2, 2, 3, 0, 3, 0, 1, 1, 0, 2, 5, 0, 3, 3, 2, 1, 7, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		pick := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b) % n
		}
		ints := []Value{Null, Int(-1), Int(0), Int(2)}
		floats := []Value{Null, Float(math.NaN()), Float(math.Copysign(0, -1)), Float(0), Float(1.5), Float(math.Inf(-1))}
		strs := []Value{Null, String(""), String("a"), String("b")}
		var rows []Tuple
		for n := pick(16); n > 0; n-- {
			row := Tuple{ints[pick(len(ints))], floats[pick(len(floats))], strs[pick(len(strs))]}
			for c := pick(5) + 1; c > 0; c-- {
				rows = append(rows, row)
			}
		}
		w := New()
		w.MustDefineBase("F", Schema{{Name: "i", Kind: KindInt}, {Name: "x", Kind: KindFloat}, {Name: "s", Kind: KindString}})
		if err := w.Load("F", rows); err != nil {
			t.Fatal(err)
		}
		selects := []struct {
			sql   string
			width int
		}{
			{"SELECT i, x, s FROM F", 3},
			{"SELECT x FROM F", 1},
			{"SELECT s, i FROM F", 2},
			{"SELECT DISTINCT s, x FROM F", 2},
			{"SELECT s, COUNT(*) AS n FROM F GROUP BY s", 2},
			{"SELECT i, x FROM F WHERE s = 'a'", 2},
		}
		sel := selects[pick(len(selects))]
		checkPresentation(t, w, sel.sql+presentation(pick, sel.width))
	})
}

// TestQueryLimitReadsOnlyWhatItReturns: LIMIT and OFFSET cut the counted
// rows before any copy is expanded, so one row held 2^24 times costs what
// the one copy returned costs, not 2^24 copies.
func TestQueryLimitReadsOnlyWhatItReturns(t *testing.T) {
	w := New()
	w.MustDefineBase("S", Schema{{Name: "a", Kind: KindInt}})
	if _, err := w.StageDeltaCSV("S", strings.NewReader("a,__count\n7,16777216\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.RunWindowOpts(WindowOptions{}); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rows, err := w.Query("SELECT a FROM S LIMIT 1 OFFSET 3")
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Int() != 7 {
		t.Fatalf("rows = %v, want one (7)", rows)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("LIMIT 1 over one row held 2^24 times allocated %d bytes, want under 1 MiB", alloc)
	}
}

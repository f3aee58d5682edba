package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	warehouse "repro"
	"repro/internal/tpcd"
)

// queryKind is one query of a mix: plan_miss's SQL takes a number, a new
// one for each request, so that every request misses the plan cache.
type queryKind struct{ name, sql string }

// BenchmarkServeQuery is one GET /query through the handler, from the
// request's bytes to the response's, for each query kind of the two query
// mixes of bench/fixture.go: TPC-D from tpcd.NewWarehouse at SF 0.004, seed
// 1, and the retail catalog at 256 stores over 5 000 drawn sales. The data
// is close to the benchmark's, not the same: bench also rounds line-item
// prices, and draws its sales with its own generator. bench is a separate
// module, so the kinds and the catalog are copied here; a change to them in
// bench/fixture.go is made here too. rows/op is the rows a response holds,
// to read allocations per row beside it.
func BenchmarkServeQuery(b *testing.B) {
	b.Run("tpcd", func(b *testing.B) {
		tw, err := tpcd.NewWarehouse(tpcd.Config{SF: 0.004, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		benchQueryKinds(b, warehouse.FromCore(tw.W), []queryKind{
			{"agg_view", "SELECT N_NAME, REVENUE FROM Q5"},
			{"order_limit", "SELECT L_ORDERKEY, REVENUE FROM Q3 ORDER BY REVENUE DESC LIMIT 10"},
			{"join_view_filter", "SELECT C_CUSTKEY, REVENUE FROM Q10 WHERE REVENUE > 100000"},
			{"adhoc_group", "SELECT C_MKTSEGMENT, COUNT(*) AS n FROM CUSTOMER GROUP BY C_MKTSEGMENT"},
			{"plan_miss", "SELECT N_NAME FROM Q5 WHERE REVENUE > %d"},
		})
	})
	b.Run("retail", func(b *testing.B) {
		benchQueryKinds(b, benchRetail(b, 256, 5000), []queryKind{
			{"agg_view", "SELECT region, total, n FROM REGION_TOTALS"},
			{"order_limit", "SELECT store_id, total FROM STORE_TOTALS ORDER BY total DESC LIMIT 10"},
			{"join_view_filter", "SELECT sale_id, amount FROM SALES_BY_STORE WHERE region = 'north' AND amount > 2490"},
			{"adhoc_group", "SELECT store_id, COUNT(*) AS n FROM SALES GROUP BY store_id"},
			{"plan_miss", "SELECT region, total FROM REGION_TOTALS WHERE total > %d"},
		})
	})
}

func benchQueryKinds(b *testing.B, w *warehouse.Warehouse, kinds []queryKind) {
	s := New(w, Config{})
	defer s.Close(context.Background())
	h := s.Handler()
	for _, k := range kinds {
		b.Run(k.name, func(b *testing.B) {
			var rows int
			b.ReportAllocs()
			for i := range b.N {
				sql := k.sql
				if strings.Contains(sql, "%d") {
					sql = fmt.Sprintf(sql, i)
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/query?q="+url.QueryEscape(sql), nil))
				if rec.Code != http.StatusOK {
					b.Fatalf("%s: %d %s", sql, rec.Code, rec.Body)
				}
				if i == 0 {
					var qr queryResponse
					if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
						b.Fatal(err)
					}
					rows = len(qr.Rows)
				}
			}
			b.ReportMetric(float64(rows), "rows/op")
		})
	}
}

// benchRetail is the retail catalog of bench/fixture.go: STORES and SALES,
// the join view SALES_BY_STORE, the summaries REGION_TOTALS and STORE_TOTALS
// over it, and the one-row WATERMARK. Its sales are drawn with math/rand
// seed 1, with amounts in quarter units.
func benchRetail(b *testing.B, stores, sales int) *warehouse.Warehouse {
	w := warehouse.New()
	w.MustDefineBase("STORES", warehouse.Schema{
		{Name: "store_id", Kind: warehouse.KindInt},
		{Name: "region", Kind: warehouse.KindString},
	})
	w.MustDefineBase("SALES", warehouse.Schema{
		{Name: "sale_id", Kind: warehouse.KindInt},
		{Name: "store_id", Kind: warehouse.KindInt},
		{Name: "amount", Kind: warehouse.KindFloat},
	})
	w.MustDefineViewSQL("SALES_BY_STORE", `SELECT s.sale_id, s.store_id, s.amount, st.region
		FROM SALES s, STORES st WHERE s.store_id = st.store_id`)
	w.MustDefineViewSQL("REGION_TOTALS", `SELECT region, SUM(amount) AS total, COUNT(*) AS n
		FROM SALES_BY_STORE GROUP BY region`)
	w.MustDefineViewSQL("STORE_TOTALS", `SELECT store_id, SUM(amount) AS total, COUNT(*) AS n
		FROM SALES_BY_STORE GROUP BY store_id`)
	w.MustDefineViewSQL("WATERMARK", `SELECT MAX(sale_id) AS wm FROM SALES`)
	regions := []string{"north", "south", "east", "west"}
	storeRows := make([]warehouse.Tuple, stores)
	for i := range storeRows {
		storeRows[i] = warehouse.Tuple{warehouse.Int(int64(i + 1)), warehouse.String(regions[i%len(regions)])}
	}
	rng := rand.New(rand.NewSource(1))
	saleRows := make([]warehouse.Tuple, sales)
	for i := range saleRows {
		saleRows[i] = warehouse.Tuple{
			warehouse.Int(int64(i + 1)),
			warehouse.Int(int64(rng.Intn(stores) + 1)),
			warehouse.Float(float64(rng.Intn(10000)) / 4),
		}
	}
	if err := w.Load("STORES", storeRows); err != nil {
		b.Fatal(err)
	}
	if err := w.Load("SALES", saleRows); err != nil {
		b.Fatal(err)
	}
	if err := w.Refresh(); err != nil {
		b.Fatal(err)
	}
	return w
}

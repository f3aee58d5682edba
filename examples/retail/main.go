// Retail: a three-level warehouse built entirely through the public API —
// cleansed base views (fact and dimension tables), a detail join view, and
// two summary levels above it. Demonstrates multi-level change propagation
// (C8 at work), the planners on a tree VDAG (where MinWork is provably
// optimal), and mixed insert/delete batches.
//
//	go run ./examples/retail
package main

import (
	"fmt"
	"log"
	"math/rand"

	warehouse "repro"
)

func main() {
	w := warehouse.New()

	// Level 0: cleansed base views.
	w.MustDefineBase("STORES", warehouse.Schema{
		{Name: "store_id", Kind: warehouse.KindInt},
		{Name: "city", Kind: warehouse.KindString},
		{Name: "country", Kind: warehouse.KindString},
	})
	w.MustDefineBase("SALES", warehouse.Schema{
		{Name: "sale_id", Kind: warehouse.KindInt},
		{Name: "store_id", Kind: warehouse.KindInt},
		{Name: "sold_on", Kind: warehouse.KindDate},
		{Name: "amount", Kind: warehouse.KindFloat},
	})

	// Level 1: the detail view ("fact join dimension").
	w.MustDefineViewSQL("SALE_FACTS", `
		SELECT s.sale_id, s.sold_on, s.amount, st.city, st.country
		FROM SALES s, STORES st
		WHERE s.store_id = st.store_id AND s.amount > 0`)

	// Level 2: a summary over the detail view.
	w.MustDefineViewSQL("CITY_DAILY", `
		SELECT city, sold_on, SUM(amount) AS revenue, COUNT(*) AS sales
		FROM SALE_FACTS
		GROUP BY city, sold_on`)

	// Level 3: a coarser rollup over the summary.
	w.MustDefineViewSQL("CITY_TOTALS", `
		SELECT city, SUM(revenue) AS revenue
		FROM CITY_DAILY
		GROUP BY city`)

	loadData(w)
	check(w.Refresh())

	g, err := w.Graph()
	check(err)
	fmt.Printf("VDAG: %s\n", g)
	fmt.Printf("tree=%v uniform=%v maxlevel=%d\n\n", g.IsTree(), g.IsUniform(), g.MaxLevel())
	printView(w, "CITY_TOTALS")

	// A day's batch: some sales voided, many new ones.
	stageBatch(w)

	plan, err := w.PlanMinWork()
	check(err)
	fmt.Printf("\nMinWork ordering %v (tree VDAG ⇒ provably optimal)\n", plan.Ordering)
	fmt.Printf("strategy: %s\n", plan.Strategy)

	// Compare against the conventional dual-stage strategy on a clone.
	dual, err := w.PlanDualStage()
	check(err)
	clone := w.Clone()
	dualRep, err := clone.Execute(dual.Strategy, warehouse.ModeSequential, 0)
	check(err)

	rep, err := w.Execute(plan.Strategy, warehouse.ModeSequential, 0)
	check(err)
	check(w.Verify())

	fmt.Printf("\nMinWork    update window: %s\n", rep)
	fmt.Printf("dual-stage update window: %s (%.2fx the work)\n\n",
		dualRep, float64(dualRep.TotalWork())/float64(rep.TotalWork()))
	printView(w, "CITY_TOTALS")
}

func loadData(w *warehouse.Warehouse) {
	stores := []warehouse.Tuple{
		{warehouse.Int(1), warehouse.String("Lisbon"), warehouse.String("PT")},
		{warehouse.Int(2), warehouse.String("Porto"), warehouse.String("PT")},
		{warehouse.Int(3), warehouse.String("Madrid"), warehouse.String("ES")},
	}
	check(w.Load("STORES", stores))
	rng := rand.New(rand.NewSource(1))
	var sales []warehouse.Tuple
	for i := 0; i < 500; i++ {
		sales = append(sales, warehouse.Tuple{
			warehouse.Int(int64(i)),
			warehouse.Int(1 + rng.Int63n(3)),
			warehouse.Date(fmt.Sprintf("2026-06-%02d", 1+rng.Intn(30))),
			warehouse.Float(float64(rng.Intn(20000)) / 100),
		})
	}
	check(w.Load("SALES", sales))
}

func stageBatch(w *warehouse.Warehouse) {
	rng := rand.New(rand.NewSource(2))
	d, err := w.NewDelta("SALES")
	check(err)
	rows, err := w.Rows("SALES")
	check(err)
	voided := 0
	for _, r := range rows {
		if rng.Intn(20) == 0 { // ~5% of sales voided
			d.Add(r.Tuple, -r.Count)
			voided++
		}
	}
	added := 0
	for i := 0; i < 40; i++ {
		d.Add(warehouse.Tuple{
			warehouse.Int(int64(1000 + i)),
			warehouse.Int(1 + rng.Int63n(3)),
			warehouse.Date("2026-07-01"),
			warehouse.Float(float64(rng.Intn(20000)) / 100),
		}, 1)
		added++
	}
	check(w.StageDelta("SALES", d))
	fmt.Printf("staged batch: %d voided, %d new sales\n", voided, added)
}

func printView(w *warehouse.Warehouse, name string) {
	rows, err := w.Rows(name)
	check(err)
	fmt.Printf("%s:\n", name)
	for _, r := range rows {
		fmt.Printf("  %v\n", r.Tuple)
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

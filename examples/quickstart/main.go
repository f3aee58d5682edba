// Quickstart: define a warehouse, load data, stage a change batch, plan an
// update strategy with MinWork, execute it, and inspect the result.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	warehouse "repro"
)

func main() {
	w := warehouse.New()

	// Two base views (populated from sources) and two derived views.
	w.MustDefineBase("PRODUCTS", warehouse.Schema{
		{Name: "product_id", Kind: warehouse.KindInt},
		{Name: "category", Kind: warehouse.KindString},
		{Name: "price", Kind: warehouse.KindFloat},
	})
	w.MustDefineBase("ORDERS", warehouse.Schema{
		{Name: "order_id", Kind: warehouse.KindInt},
		{Name: "product_id", Kind: warehouse.KindInt},
		{Name: "quantity", Kind: warehouse.KindInt},
	})
	w.MustDefineViewSQL("ORDER_DETAILS", `
		SELECT o.order_id, p.category, p.price * o.quantity AS amount
		FROM ORDERS o, PRODUCTS p
		WHERE o.product_id = p.product_id`)
	w.MustDefineViewSQL("CATEGORY_REVENUE", `
		SELECT category, SUM(amount) AS revenue, COUNT(*) AS orders
		FROM ORDER_DETAILS
		GROUP BY category`)

	// Initial load and materialization.
	check(w.Load("PRODUCTS", []warehouse.Tuple{
		{warehouse.Int(1), warehouse.String("books"), warehouse.Float(12.50)},
		{warehouse.Int(2), warehouse.String("games"), warehouse.Float(59.90)},
		{warehouse.Int(3), warehouse.String("books"), warehouse.Float(7.00)},
	}))
	check(w.Load("ORDERS", []warehouse.Tuple{
		{warehouse.Int(100), warehouse.Int(1), warehouse.Int(2)},
		{warehouse.Int(101), warehouse.Int(2), warehouse.Int(1)},
		{warehouse.Int(102), warehouse.Int(3), warehouse.Int(4)},
	}))
	check(w.Refresh())
	printView(w, "CATEGORY_REVENUE")

	// A batch of source changes arrives: one order cancelled, two new ones.
	d, err := w.NewDelta("ORDERS")
	check(err)
	d.Add(warehouse.Tuple{warehouse.Int(101), warehouse.Int(2), warehouse.Int(1)}, -1)
	d.Add(warehouse.Tuple{warehouse.Int(103), warehouse.Int(2), warehouse.Int(3)}, 1)
	d.Add(warehouse.Tuple{warehouse.Int(104), warehouse.Int(1), warehouse.Int(1)}, 1)
	check(w.StageDelta("ORDERS", d))

	// Plan the update window with MinWork and execute it.
	plan, err := w.PlanMinWork()
	check(err)
	fmt.Printf("\nplanned strategy: %s\n", plan.Strategy)
	report, err := w.Execute(plan.Strategy, warehouse.ModeSequential, 0)
	check(err)
	fmt.Printf("update window: %s\n\n", report)

	check(w.Verify()) // every view equals its recomputation
	printView(w, "CATEGORY_REVENUE")
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

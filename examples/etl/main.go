// ETL pipeline: the complete warehouse lifecycle of the paper's Section 2
// model. A simulated remote OLTP source applies transactions; an extractor
// cleanses and reshapes its change log into base-view deltas ("base views
// are often obtained by cleansing and denormalizing OLTP data"); each
// update window plans a MinWork strategy and executes it; a deferred
// summary view goes stale and is refreshed on demand.
//
//	go run ./examples/etl
package main

import (
	"fmt"
	"log"
	"math/rand"

	warehouse "repro"
	"repro/internal/relation"
	"repro/internal/source"
)

// The OLTP side: a raw orders table with a status column. Only shipped
// orders with a positive amount reach the warehouse.
var oltpSchema = relation.Schema{
	{Name: "order_id", Kind: relation.KindInt},
	{Name: "customer", Kind: relation.KindInt},
	{Name: "amount", Kind: relation.KindFloat},
	{Name: "status", Kind: relation.KindString}, // draft | shipped | cancelled
}

var baseSchema = warehouse.Schema{
	{Name: "order_id", Kind: warehouse.KindInt},
	{Name: "customer", Kind: warehouse.KindInt},
	{Name: "amount", Kind: warehouse.KindFloat},
}

func main() {
	// --- source side -----------------------------------------------------
	src := source.New()
	check(src.DefineTable("ORDERS_RAW", oltpSchema, "order_id"))
	extractor, err := source.NewExtractor(src, map[string]source.Extraction{
		"ORDERS": {
			Table:      "ORDERS_RAW",
			Filter:     func(r relation.Tuple) bool { return r[3].Str() == "shipped" && r[2].Float() > 0 },
			Shape:      func(r relation.Tuple) relation.Tuple { return r[:3].Clone() },
			ViewSchema: relation.Schema(baseSchema),
		},
	})
	check(err)

	rng := rand.New(rand.NewSource(1))
	nextID := int64(0)
	txBurst := func(n int) {
		for i := 0; i < n; i++ {
			switch rng.Intn(4) {
			case 0, 1: // new shipped order
				src.MustApply(source.Tx{Table: "ORDERS_RAW", Op: source.OpInsert,
					Row: rawOrder(nextID, rng.Int63n(6), float64(rng.Intn(10000))/100, "shipped")})
				nextID++
			case 2: // draft order (invisible to the warehouse until shipped)
				src.MustApply(source.Tx{Table: "ORDERS_RAW", Op: source.OpInsert,
					Row: rawOrder(nextID, rng.Int63n(6), float64(rng.Intn(10000))/100, "draft")})
				nextID++
			case 3: // cancel a random past order (update → delete+insert)
				if nextID == 0 {
					continue
				}
				id := rng.Int63n(nextID)
				rows, _ := src.Rows("ORDERS_RAW")
				for _, r := range rows {
					if r[0].Int() == id {
						src.MustApply(source.Tx{Table: "ORDERS_RAW", Op: source.OpUpdate,
							Row: rawOrder(id, r[1].Int(), r[2].Float(), "cancelled")})
						break
					}
				}
			}
		}
	}
	txBurst(200)

	// --- warehouse side ---------------------------------------------------
	w := warehouse.New()
	w.MustDefineBase("ORDERS", baseSchema)
	w.MustDefineViewSQL("BY_CUSTOMER", `
		SELECT customer, SUM(amount) AS total, COUNT(*) AS orders
		FROM ORDERS GROUP BY customer`)
	w.MustDefineViewSQL("GRAND_TOTAL", `
		SELECT SUM(total) AS revenue FROM BY_CUSTOMER`)
	// GRAND_TOTAL is rarely read: defer it out of the update window.
	check(w.SetDeferred("GRAND_TOTAL", true))

	loaded, err := extractor.InitialLoad()
	check(err)
	check(w.Load("ORDERS", loaded["ORDERS"]))
	check(w.Refresh())
	fmt.Printf("initial load: %d cleansed orders\n\n", len(loaded["ORDERS"]))

	// --- nightly update windows -------------------------------------------
	for night := 1; night <= 3; night++ {
		txBurst(120)
		deltas, err := extractor.Drain()
		check(err)
		d := deltas["ORDERS"]
		if d == nil {
			fmt.Printf("night %d: no warehouse-visible changes\n", night)
			continue
		}
		fmt.Printf("night %d: extracted δORDERS = +%d −%d\n", night, d.PlusCount(), d.MinusCount())
		check(w.StageDelta("ORDERS", d))
		plan, err := w.PlanMinWork()
		check(err)
		rep, err := w.Execute(plan.Strategy, warehouse.ModeSequential, 0)
		check(err)
		fmt.Printf("  update window: %s\n", rep)
		check(w.Verify())
	}

	fmt.Printf("\nstale views after the windows: %v\n", w.StaleViews())
	rows, err := w.Query(`SELECT customer, total FROM BY_CUSTOMER ORDER BY total DESC LIMIT 3`)
	check(err)
	fmt.Println("top customers (maintained incrementally):")
	for _, r := range rows {
		fmt.Printf("  %v\n", r)
	}

	check(w.RefreshStale())
	rows, err = w.Query(`SELECT revenue FROM GRAND_TOTAL`)
	check(err)
	fmt.Printf("grand total (refreshed on demand): %v\n", rows[0])
	check(w.Verify())
}

func rawOrder(id, cust int64, amount float64, status string) relation.Tuple {
	return relation.Tuple{
		relation.NewInt(id), relation.NewInt(cust),
		relation.NewFloat(amount), relation.NewString(status),
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

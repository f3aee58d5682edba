package warehouse_test

import (
	"fmt"
	"log"
	"math/rand"

	warehouse "repro"
)

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// incremental stops an example unless its window committed on the first,
// incremental attempt: the failure ladder would otherwise recompute every
// view past an incremental failure and print the same rows.
func incremental(win warehouse.WindowReport, err error) warehouse.WindowReport {
	must(err)
	if win.Attempts != 1 || win.Recomputed || win.FellBackSequential {
		log.Fatalf("the window was not incremental: %s", win)
	}
	return win
}

// printQuery prints a title and then the rows of a query, one a line.
func printQuery(w *warehouse.Warehouse, title, sql string) {
	rows, err := w.Query(sql)
	must(err)
	fmt.Println(title)
	for _, r := range rows {
		fmt.Println(" ", r)
	}
}

// Example shows the full lifecycle: define, load, stage changes, run an
// update window (planned with MinWork), and query.
func Example() {
	w := warehouse.New()
	w.MustDefineBase("SALES", warehouse.Schema{
		{Name: "id", Kind: warehouse.KindInt},
		{Name: "region", Kind: warehouse.KindString},
		{Name: "amount", Kind: warehouse.KindInt},
	})
	w.MustDefineViewSQL("TOTALS", `
		SELECT region, SUM(amount) AS total FROM SALES GROUP BY region`)

	if err := w.Load("SALES", []warehouse.Tuple{
		{warehouse.Int(1), warehouse.String("west"), warehouse.Int(10)},
		{warehouse.Int(2), warehouse.String("east"), warehouse.Int(5)},
	}); err != nil {
		log.Fatal(err)
	}
	if err := w.Refresh(); err != nil {
		log.Fatal(err)
	}

	d, _ := w.NewDelta("SALES")
	d.Add(warehouse.Tuple{warehouse.Int(3), warehouse.String("west"), warehouse.Int(7)}, 1)
	if err := w.StageDelta("SALES", d); err != nil {
		log.Fatal(err)
	}

	win := incremental(w.RunWindowOpts(warehouse.WindowOptions{}))
	fmt.Println(win.Plan.Strategy)

	rows, err := w.Query("SELECT region, total FROM TOTALS ORDER BY region")
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range rows {
		fmt.Println(r)
	}
	// Output:
	// ⟨Comp(TOTALS, {SALES}); Inst(SALES); Inst(TOTALS)⟩
	// (east, 5)
	// (west, 17)
}

// ExampleWarehouse_Script renders the Section 5.5 update script of a plan.
func ExampleWarehouse_Script() {
	w := warehouse.New()
	w.MustDefineBase("B", warehouse.Schema{{Name: "x", Kind: warehouse.KindInt}})
	w.MustDefineViewSQL("V", "SELECT x FROM B")
	s := warehouse.Strategy{
		warehouse.Comp{View: "V", Over: []string{"B"}},
		warehouse.Inst{View: "B"},
		warehouse.Inst{View: "V"},
	}
	fmt.Print(w.Script(s))
	// Output:
	// -- update script (generated; see Section 5.5 of the paper)
	// EXEC comp_V_from_B;                           -- step  1: Comp(V, {B})
	// EXEC inst_B;                                  -- step  2: Inst(B)
	// EXEC inst_V;                                  -- step  3: Inst(V)
}

// ExampleWarehouse_Validate shows the correctness conditions rejecting an
// out-of-order strategy (C3: a view may not be installed before the
// compute expressions that read its delta).
func ExampleWarehouse_Validate() {
	w := warehouse.New()
	w.MustDefineBase("B", warehouse.Schema{{Name: "x", Kind: warehouse.KindInt}})
	w.MustDefineViewSQL("V", "SELECT x FROM B")
	d, _ := w.NewDelta("B")
	d.Add(warehouse.Tuple{warehouse.Int(1)}, 1)
	if err := w.StageDelta("B", d); err != nil {
		log.Fatal(err)
	}
	bad := warehouse.Strategy{
		warehouse.Inst{View: "B"},
		warehouse.Comp{View: "V", Over: []string{"B"}},
		warehouse.Inst{View: "V"},
	}
	fmt.Println(w.Validate(bad))
	// Output:
	// strategy: view V (C7): strategy: Inst(B) precedes Comp(V, {B}) which uses δB (C3)
}

// Example_multiLevel builds a three-level warehouse through the public API —
// fact and dimension base views, a detail join view, a daily summary over it
// and a rollup over the summary — and stages a batch that voids some sales
// and adds new ones. On a tree VDAG MinWork's ordering is optimal (§6); the
// dual-stage strategy of the same batch, run on a clone, does more work.
// Amounts are integer cents, so the sums do not depend on the order rows are
// added in.
func Example_multiLevel() {
	w := warehouse.New()
	w.MustDefineBase("STORES", warehouse.Schema{
		{Name: "store_id", Kind: warehouse.KindInt},
		{Name: "city", Kind: warehouse.KindString},
		{Name: "country", Kind: warehouse.KindString},
	})
	w.MustDefineBase("SALES", warehouse.Schema{
		{Name: "sale_id", Kind: warehouse.KindInt},
		{Name: "store_id", Kind: warehouse.KindInt},
		{Name: "sold_on", Kind: warehouse.KindDate},
		{Name: "cents", Kind: warehouse.KindInt},
	})
	w.MustDefineViewSQL("SALE_FACTS", `
		SELECT s.sale_id, s.sold_on, s.cents, st.city, st.country
		FROM SALES s, STORES st
		WHERE s.store_id = st.store_id AND s.cents > 0`)
	w.MustDefineViewSQL("CITY_DAILY", `
		SELECT city, sold_on, SUM(cents) AS revenue, COUNT(*) AS sales
		FROM SALE_FACTS GROUP BY city, sold_on`)
	w.MustDefineViewSQL("CITY_TOTALS", `
		SELECT city, SUM(revenue) AS revenue FROM CITY_DAILY GROUP BY city`)

	must(w.Load("STORES", []warehouse.Tuple{
		{warehouse.Int(1), warehouse.String("Lisbon"), warehouse.String("PT")},
		{warehouse.Int(2), warehouse.String("Porto"), warehouse.String("PT")},
		{warehouse.Int(3), warehouse.String("Madrid"), warehouse.String("ES")},
	}))
	rng := rand.New(rand.NewSource(1))
	var sales []warehouse.Tuple
	for i := 0; i < 500; i++ {
		sales = append(sales, warehouse.Tuple{
			warehouse.Int(int64(i)),
			warehouse.Int(1 + rng.Int63n(3)),
			warehouse.Date(fmt.Sprintf("2026-06-%02d", 1+rng.Intn(30))),
			warehouse.Int(int64(rng.Intn(20000))),
		})
	}
	must(w.Load("SALES", sales))
	must(w.Refresh())

	g, err := w.Graph()
	must(err)
	fmt.Println(g)
	fmt.Printf("tree=%v uniform=%v maxlevel=%d\n", g.IsTree(), g.IsUniform(), g.MaxLevel())

	// A day's batch: about one sale in twenty voided, forty new ones.
	rng = rand.New(rand.NewSource(2))
	d, err := w.NewDelta("SALES")
	must(err)
	rows, err := w.Rows("SALES")
	must(err)
	for _, r := range rows {
		if rng.Intn(20) == 0 {
			d.Add(r.Tuple, -r.Count)
		}
	}
	for i := 0; i < 40; i++ {
		d.Add(warehouse.Tuple{
			warehouse.Int(int64(1000 + i)),
			warehouse.Int(1 + rng.Int63n(3)),
			warehouse.Date("2026-07-01"),
			warehouse.Int(int64(rng.Intn(20000))),
		}, 1)
	}
	must(w.StageDelta("SALES", d))
	fmt.Printf("staged δSALES: +%d −%d\n", d.PlusCount(), d.MinusCount())

	dual := incremental(w.Clone().RunWindowOpts(warehouse.WindowOptions{Planner: warehouse.DualStagePlanner}))
	win := incremental(w.RunWindowOpts(warehouse.WindowOptions{}))
	must(w.Verify())
	fmt.Println("MinWork ordering", win.Plan.Ordering)
	fmt.Println(win.Plan.Strategy)
	rep, dualRep := win.Report, dual.Report
	fmt.Printf("MinWork work=%d (comp=%d inst=%d)\n", rep.TotalWork(), rep.CompWork, rep.InstWork)
	fmt.Printf("dual-stage work=%d (comp=%d inst=%d)\n", dualRep.TotalWork(), dualRep.CompWork, dualRep.InstWork)
	printQuery(w, "CITY_TOTALS:", "SELECT city, revenue FROM CITY_TOTALS ORDER BY city")
	// Output:
	// STORES; SALES; SALE_FACTS <- (SALES, STORES); CITY_DAILY <- (SALE_FACTS); CITY_TOTALS <- (CITY_DAILY)
	// tree=true uniform=true maxlevel=3
	// staged δSALES: +40 −25
	// MinWork ordering [CITY_DAILY STORES SALES SALE_FACTS]
	// ⟨Comp(SALE_FACTS, {STORES}); Inst(STORES); Comp(SALE_FACTS, {SALES}); Inst(SALES); Comp(CITY_DAILY, {SALE_FACTS}); Comp(CITY_TOTALS, {CITY_DAILY}); Inst(CITY_DAILY); Inst(SALE_FACTS); Inst(CITY_TOTALS)⟩
	// MinWork work=867 (comp=682 inst=185)
	// dual-stage work=932 (comp=747 inst=185)
	// CITY_TOTALS:
	//   (Lisbon, 1626206)
	//   (Madrid, 1631664)
	//   (Porto, 1833151)
}

// ExampleWarehouse_Parallelize stages a strategy into sets of expressions
// that run concurrently (§9). Three sibling summaries over the same bases
// make MinWork's Comps independent; the dual-stage plan is shallower, but its
// two-term Comp makes the total work larger — the tradeoff §9 describes.
func ExampleWarehouse_Parallelize() {
	w := warehouse.New()
	w.MustDefineBase("EVENTS", warehouse.Schema{
		{Name: "event_id", Kind: warehouse.KindInt},
		{Name: "kind", Kind: warehouse.KindString},
		{Name: "user_id", Kind: warehouse.KindInt},
		{Name: "cents", Kind: warehouse.KindInt},
	})
	w.MustDefineBase("USERS", warehouse.Schema{
		{Name: "user_id", Kind: warehouse.KindInt},
		{Name: "plan", Kind: warehouse.KindString},
	})
	w.MustDefineViewSQL("BY_KIND", `
		SELECT kind, COUNT(*) AS n, SUM(cents) AS total FROM EVENTS GROUP BY kind`)
	w.MustDefineViewSQL("BY_PLAN", `
		SELECT u.plan, SUM(e.cents) AS total
		FROM EVENTS e, USERS u WHERE e.user_id = u.user_id GROUP BY u.plan`)
	w.MustDefineViewSQL("BIG_EVENTS", `
		SELECT event_id, kind, cents FROM EVENTS WHERE cents > 9000`)

	rng := rand.New(rand.NewSource(3))
	kinds := []string{"click", "view", "purchase"}
	plans := []string{"free", "pro"}
	var users, events []warehouse.Tuple
	for u := 0; u < 50; u++ {
		users = append(users, warehouse.Tuple{warehouse.Int(int64(u)), warehouse.String(plans[rng.Intn(2)])})
	}
	for e := 0; e < 2000; e++ {
		events = append(events, warehouse.Tuple{
			warehouse.Int(int64(e)),
			warehouse.String(kinds[rng.Intn(3)]),
			warehouse.Int(rng.Int63n(50)),
			warehouse.Int(int64(rng.Intn(10000))),
		})
	}
	must(w.Load("USERS", users))
	must(w.Load("EVENTS", events))
	must(w.Refresh())

	// One event in ten deleted, a hundred purchases and one user added.
	rng = rand.New(rand.NewSource(4))
	de, err := w.NewDelta("EVENTS")
	must(err)
	rows, err := w.Rows("EVENTS")
	must(err)
	for _, r := range rows {
		if rng.Intn(10) == 0 {
			de.Add(r.Tuple, -r.Count)
		}
	}
	for i := 0; i < 100; i++ {
		de.Add(warehouse.Tuple{
			warehouse.Int(int64(10000 + i)),
			warehouse.String("purchase"),
			warehouse.Int(rng.Int63n(50)),
			warehouse.Int(int64(rng.Intn(10000))),
		}, 1)
	}
	must(w.StageDelta("EVENTS", de))
	du, err := w.NewDelta("USERS")
	must(err)
	du.Add(warehouse.Tuple{warehouse.Int(50), warehouse.String("pro")}, 1)
	must(w.StageDelta("USERS", du))

	for _, planner := range []warehouse.PlannerName{warehouse.MinWorkPlanner, warehouse.DualStagePlanner} {
		run := w.Clone()
		win := incremental(run.RunWindowOpts(warehouse.WindowOptions{Planner: planner, Mode: warehouse.ModeStaged}))
		must(run.Verify())
		staged := run.Parallelize(win.Plan.Strategy)
		fmt.Printf("%s: %d expressions in %d stages\n", planner, len(win.Plan.Strategy), len(staged))
		fmt.Println(" ", staged)
		fmt.Printf("  total work %d, span work %d\n", win.Report.Sched.TotalWork, win.Report.Sched.SpanWork)
	}
	// Output:
	// minwork: 9 expressions in 4 stages
	//   [1: Comp(BY_KIND, {EVENTS}) Comp(BY_PLAN, {EVENTS}) Comp(BIG_EVENTS, {EVENTS})] [2: Inst(EVENTS) Inst(BY_KIND) Inst(BIG_EVENTS)] [3: Comp(BY_PLAN, {USERS})] [4: Inst(USERS) Inst(BY_PLAN)]
	//   total work 3135, span work 2536
	// dualstage: 8 expressions in 2 stages
	//   [1: Comp(BY_KIND, {EVENTS}) Comp(BY_PLAN, {EVENTS, USERS}) Comp(BIG_EVENTS, {EVENTS})] [2: Inst(EVENTS) Inst(USERS) Inst(BY_KIND) Inst(BY_PLAN) Inst(BIG_EVENTS)]
	//   total work 3498, span work 2895
}

// Example_quickstart defines a warehouse, loads it, stages a change batch,
// runs an update window that plans with MinWork, and reads the result.
// Prices are integer cents, so the sums do not depend on the order rows are
// added in.
func Example_quickstart() {
	w := warehouse.New()

	// Two base views (populated from sources) and two derived views.
	w.MustDefineBase("PRODUCTS", warehouse.Schema{
		{Name: "product_id", Kind: warehouse.KindInt},
		{Name: "category", Kind: warehouse.KindString},
		{Name: "cents", Kind: warehouse.KindInt},
	})
	w.MustDefineBase("ORDERS", warehouse.Schema{
		{Name: "order_id", Kind: warehouse.KindInt},
		{Name: "product_id", Kind: warehouse.KindInt},
		{Name: "quantity", Kind: warehouse.KindInt},
	})
	w.MustDefineViewSQL("ORDER_DETAILS", `
		SELECT o.order_id, p.category, p.cents * o.quantity AS amount
		FROM ORDERS o, PRODUCTS p
		WHERE o.product_id = p.product_id`)
	w.MustDefineViewSQL("CATEGORY_REVENUE", `
		SELECT category, SUM(amount) AS revenue, COUNT(*) AS orders
		FROM ORDER_DETAILS
		GROUP BY category`)

	// Initial load and materialization.
	must(w.Load("PRODUCTS", []warehouse.Tuple{
		{warehouse.Int(1), warehouse.String("books"), warehouse.Int(1250)},
		{warehouse.Int(2), warehouse.String("games"), warehouse.Int(5990)},
		{warehouse.Int(3), warehouse.String("books"), warehouse.Int(700)},
	}))
	must(w.Load("ORDERS", []warehouse.Tuple{
		{warehouse.Int(100), warehouse.Int(1), warehouse.Int(2)},
		{warehouse.Int(101), warehouse.Int(2), warehouse.Int(1)},
		{warehouse.Int(102), warehouse.Int(3), warehouse.Int(4)},
	}))
	must(w.Refresh())
	printQuery(w, "CATEGORY_REVENUE:", "SELECT category, revenue, orders FROM CATEGORY_REVENUE ORDER BY category")

	// A batch of source changes arrives: one order cancelled, two new ones.
	d, err := w.NewDelta("ORDERS")
	must(err)
	d.Add(warehouse.Tuple{warehouse.Int(101), warehouse.Int(2), warehouse.Int(1)}, -1)
	d.Add(warehouse.Tuple{warehouse.Int(103), warehouse.Int(2), warehouse.Int(3)}, 1)
	d.Add(warehouse.Tuple{warehouse.Int(104), warehouse.Int(1), warehouse.Int(1)}, 1)
	must(w.StageDelta("ORDERS", d))

	// Run the update window: plan with MinWork, execute, commit.
	win := incremental(w.RunWindowOpts(warehouse.WindowOptions{}))
	fmt.Println("planned strategy:", win.Plan.Strategy)
	rep := win.Report
	fmt.Printf("update window: work=%d (comp=%d inst=%d)\n", rep.TotalWork(), rep.CompWork, rep.InstWork)

	must(w.Verify()) // every view equals its recomputation
	printQuery(w, "CATEGORY_REVENUE:", "SELECT category, revenue, orders FROM CATEGORY_REVENUE ORDER BY category")
	// Output:
	// CATEGORY_REVENUE:
	//   (books, 5300, 2)
	//   (games, 5990, 1)
	// planned strategy: ⟨Comp(ORDER_DETAILS, {PRODUCTS}); Inst(PRODUCTS); Comp(ORDER_DETAILS, {ORDERS}); Inst(ORDERS); Comp(CATEGORY_REVENUE, {ORDER_DETAILS}); Inst(ORDER_DETAILS); Inst(CATEGORY_REVENUE)⟩
	// update window: work=22 (comp=12 inst=10)
	// CATEGORY_REVENUE:
	//   (books, 6550, 3)
	//   (games, 17970, 1)
}

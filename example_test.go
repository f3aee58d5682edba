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

// printQuery prints a title and then the rows of a query, one a line.
func printQuery(w *warehouse.Warehouse, title, sql string) {
	rows, err := w.Query(sql)
	must(err)
	fmt.Println(title)
	for _, r := range rows {
		fmt.Println(" ", r)
	}
}

// Example shows the full lifecycle: define, load, stage changes, plan with
// MinWork, execute, and query.
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

	plan, err := w.PlanMinWork()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(plan.Strategy)
	if _, err := w.Execute(plan.Strategy, warehouse.ModeSequential, 0); err != nil {
		log.Fatal(err)
	}

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

	plan, err := w.PlanMinWork()
	must(err)
	fmt.Println("MinWork ordering", plan.Ordering)
	fmt.Println(plan.Strategy)

	dual, err := w.Plan(warehouse.DualStagePlanner)
	must(err)
	dualRep, err := w.Clone().Execute(dual.Strategy, warehouse.ModeSequential, 0)
	must(err)
	rep, err := w.Execute(plan.Strategy, warehouse.ModeSequential, 0)
	must(err)
	must(w.Verify())
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
		plan, err := run.Plan(planner)
		must(err)
		staged := run.Parallelize(plan.Strategy)
		fmt.Printf("%s: %d expressions in %d stages\n", planner, staged.Exprs(), staged.Stages())
		fmt.Println(" ", staged)
		rep, err := run.Execute(plan.Strategy, warehouse.ModeStaged, 0)
		must(err)
		must(run.Verify())
		fmt.Printf("  total work %d, span work %d\n", rep.Sched.TotalWork, rep.Sched.SpanWork)
	}
	// Output:
	// minwork: 9 expressions in 4 stages
	//   [1: Comp(BY_KIND, {EVENTS}) Comp(BY_PLAN, {EVENTS}) Comp(BIG_EVENTS, {EVENTS})] [2: Inst(EVENTS) Inst(BY_KIND) Inst(BIG_EVENTS)] [3: Comp(BY_PLAN, {USERS})] [4: Inst(USERS) Inst(BY_PLAN)]
	//   total work 3135, span work 2536
	// dualstage: 8 expressions in 2 stages
	//   [1: Comp(BY_KIND, {EVENTS}) Comp(BY_PLAN, {EVENTS, USERS}) Comp(BIG_EVENTS, {EVENTS})] [2: Inst(EVENTS) Inst(USERS) Inst(BY_KIND) Inst(BY_PLAN) Inst(BIG_EVENTS)]
	//   total work 3498, span work 2895
}

// ExampleWarehouse_SetDeferred keeps a rarely read summary out of the update
// windows: a deferred view is skipped by every strategy, goes stale once its
// inputs change, and RefreshStale recomputes it on demand.
func ExampleWarehouse_SetDeferred() {
	w := warehouse.New()
	w.MustDefineBase("ORDERS", warehouse.Schema{
		{Name: "order_id", Kind: warehouse.KindInt},
		{Name: "customer", Kind: warehouse.KindInt},
		{Name: "cents", Kind: warehouse.KindInt},
	})
	w.MustDefineViewSQL("BY_CUSTOMER", `
		SELECT customer, SUM(cents) AS total, COUNT(*) AS orders
		FROM ORDERS GROUP BY customer`)
	w.MustDefineViewSQL("GRAND_TOTAL", `SELECT SUM(total) AS revenue FROM BY_CUSTOMER`)
	must(w.SetDeferred("GRAND_TOTAL", true))

	must(w.Load("ORDERS", []warehouse.Tuple{
		{warehouse.Int(1), warehouse.Int(7), warehouse.Int(1250)},
		{warehouse.Int(2), warehouse.Int(8), warehouse.Int(400)},
	}))
	must(w.Refresh())

	for i, order := range []warehouse.Tuple{
		{warehouse.Int(3), warehouse.Int(7), warehouse.Int(999)},
		{warehouse.Int(4), warehouse.Int(9), warehouse.Int(5000)},
	} {
		d, err := w.NewDelta("ORDERS")
		must(err)
		d.Add(order, 1)
		must(w.StageDelta("ORDERS", d))
		plan, err := w.PlanMinWork()
		must(err)
		_, err = w.Execute(plan.Strategy, warehouse.ModeSequential, 0)
		must(err)
		fmt.Printf("window %d: %s, stale %v\n", i+1, plan.Strategy, w.StaleViews())
	}
	must(w.Verify())
	printQuery(w, "BY_CUSTOMER:", "SELECT customer, total, orders FROM BY_CUSTOMER ORDER BY customer")
	printQuery(w, "GRAND_TOTAL, stale:", "SELECT revenue FROM GRAND_TOTAL")

	must(w.RefreshStale())
	printQuery(w, fmt.Sprintf("GRAND_TOTAL after RefreshStale, stale %v:", w.StaleViews()), "SELECT revenue FROM GRAND_TOTAL")
	must(w.Verify())
	// Output:
	// window 1: ⟨Comp(BY_CUSTOMER, {ORDERS}); Inst(ORDERS); Inst(BY_CUSTOMER)⟩, stale [GRAND_TOTAL]
	// window 2: ⟨Comp(BY_CUSTOMER, {ORDERS}); Inst(ORDERS); Inst(BY_CUSTOMER)⟩, stale [GRAND_TOTAL]
	// BY_CUSTOMER:
	//   (7, 2249, 2)
	//   (8, 400, 1)
	//   (9, 5000, 1)
	// GRAND_TOTAL, stale:
	//   (1650)
	// GRAND_TOTAL after RefreshStale, stale []:
	//   (7649)
}

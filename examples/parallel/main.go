// Parallel update strategies (Section 9 of the paper): stage a sequential
// strategy into sets of expressions that run concurrently, and observe the
// work/span tradeoff between 1-way and dual-stage strategies.
//
//	go run ./examples/parallel
package main

import (
	"fmt"
	"log"
	"math/rand"

	warehouse "repro"
)

func main() {
	w := warehouse.New()
	w.MustDefineBase("EVENTS", warehouse.Schema{
		{Name: "event_id", Kind: warehouse.KindInt},
		{Name: "kind", Kind: warehouse.KindString},
		{Name: "user_id", Kind: warehouse.KindInt},
		{Name: "value", Kind: warehouse.KindFloat},
	})
	w.MustDefineBase("USERS", warehouse.Schema{
		{Name: "user_id", Kind: warehouse.KindInt},
		{Name: "plan", Kind: warehouse.KindString},
	})
	// Three sibling summaries over the same bases: their Comp expressions
	// are mutually independent, so a staged plan runs them concurrently.
	w.MustDefineViewSQL("BY_KIND", `
		SELECT kind, COUNT(*) AS n, SUM(value) AS total
		FROM EVENTS GROUP BY kind`)
	w.MustDefineViewSQL("BY_PLAN", `
		SELECT u.plan, SUM(e.value) AS total
		FROM EVENTS e, USERS u
		WHERE e.user_id = u.user_id
		GROUP BY u.plan`)
	w.MustDefineViewSQL("BIG_EVENTS", `
		SELECT event_id, kind, value
		FROM EVENTS WHERE value > 90.0`)

	loadData(w)
	check(w.Refresh())
	stageBatch(w)

	for _, variant := range []string{"minwork", "dualstage"} {
		run := w.Clone()
		var plan warehouse.Plan
		var err error
		if variant == "minwork" {
			plan, err = run.PlanMinWork()
		} else {
			plan, err = run.PlanDualStage()
		}
		check(err)
		staged := run.Parallelize(plan.Strategy)
		fmt.Printf("%s: %d expressions in %d stages\n", variant, staged.Exprs(), staged.Stages())
		fmt.Printf("  plan: %s\n", staged)
		rep, err := run.Execute(plan.Strategy, warehouse.ModeStaged, 0)
		check(err)
		check(run.Verify())
		fmt.Printf("  total work %d, span work %d, work-parallelism %.2fx\n\n",
			rep.Sched.TotalWork, rep.Sched.SpanWork, rep.Sched.Speedup())
	}
	fmt.Println("Section 9's tradeoff: the dual-stage plan is shallower (more parallel)")
	fmt.Println("but its multi-term Comp expressions make the total work larger.")
}

func loadData(w *warehouse.Warehouse) {
	rng := rand.New(rand.NewSource(3))
	kinds := []string{"click", "view", "purchase"}
	plans := []string{"free", "pro"}
	var users []warehouse.Tuple
	for u := 0; u < 50; u++ {
		users = append(users, warehouse.Tuple{warehouse.Int(int64(u)), warehouse.String(plans[rng.Intn(2)])})
	}
	check(w.Load("USERS", users))
	var events []warehouse.Tuple
	for e := 0; e < 2000; e++ {
		events = append(events, warehouse.Tuple{
			warehouse.Int(int64(e)),
			warehouse.String(kinds[rng.Intn(3)]),
			warehouse.Int(rng.Int63n(50)),
			warehouse.Float(float64(rng.Intn(10000)) / 100),
		})
	}
	check(w.Load("EVENTS", events))
}

func stageBatch(w *warehouse.Warehouse) {
	rng := rand.New(rand.NewSource(4))
	d, err := w.NewDelta("EVENTS")
	check(err)
	rows, err := w.Rows("EVENTS")
	check(err)
	for _, r := range rows {
		if rng.Intn(10) == 0 {
			d.Add(r.Tuple, -r.Count)
		}
	}
	for i := 0; i < 100; i++ {
		d.Add(warehouse.Tuple{
			warehouse.Int(int64(10000 + i)),
			warehouse.String("purchase"),
			warehouse.Int(rng.Int63n(50)),
			warehouse.Float(float64(rng.Intn(10000)) / 100),
		}, 1)
	}
	check(w.StageDelta("EVENTS", d))
	du, err := w.NewDelta("USERS")
	check(err)
	du.Add(warehouse.Tuple{warehouse.Int(50), warehouse.String("pro")}, 1)
	check(w.StageDelta("USERS", du))
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

package warehouse_test

import (
	"fmt"
	"log"

	warehouse "repro"
)

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

package tpcd_test

import (
	"fmt"
	"log"

	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/planner"
	"repro/internal/strategy"
	"repro/internal/tpcd"
)

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// Example is the paper's own scenario: the Figure 4 warehouse (six TPC-D base
// views, summary views Q3, Q5 and Q10), a 10% decrease of the base views, and
// the work of four strategies for it — MinWork, Prune's best 1-way strategy,
// MinWork's ordering reversed, and the conventional dual-stage strategy —
// each run on a clone of the warehouse and checked against recomputation.
func Example() {
	tw, err := tpcd.NewWarehouse(tpcd.Config{SF: 0.002, Seed: 7})
	check(err)
	for _, v := range tw.W.ViewNames() {
		fmt.Printf("%-9s %6d rows\n", v, tw.W.MustView(v).Cardinality())
	}
	_, err = tw.StageChanges(tpcd.UniformDecrease(0.10))
	check(err)

	stats, err := exec.PlanningStats(tw.W)
	check(err)
	mw, err := planner.MinWork(tw.Graph, stats)
	check(err)
	fmt.Println("desired view ordering:", mw.DesiredOrdering)
	pr, err := planner.Prune(tw.Graph, cost.DefaultModel, stats, exec.RefCounts(tw.W))
	check(err)
	rev := append([]string(nil), mw.UsedOrdering...)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	revStrategy, err := planner.ConstructEG(tw.Graph, rev).TopoSort()
	check(err)

	var baseline int64
	for _, c := range []struct {
		label string
		s     strategy.Strategy
	}{
		{"MinWork", mw.Strategy},
		{"Prune best 1-way", pr.Strategy},
		{"reverse ordering", revStrategy},
		{"dual-stage", strategy.DualStageVDAG(tw.Graph)},
	} {
		run := tw.W.Clone()
		rep, err := exec.Execute(run, c.s, exec.Options{Validate: true})
		check(err)
		check(run.VerifyAll())
		if baseline == 0 {
			baseline = rep.TotalWork()
		}
		fmt.Printf("%-16s work=%6d (%.2fx MinWork)\n", c.label, rep.TotalWork(), float64(rep.TotalWork())/float64(baseline))
	}
	// Output:
	// REGION         5 rows
	// NATION        25 rows
	// SUPPLIER      20 rows
	// CUSTOMER     300 rows
	// ORDER       3000 rows
	// LINEITEM   12000 rows
	// Q3           237 rows
	// Q5             2 rows
	// Q10           63 rows
	// desired view ordering: [LINEITEM ORDER CUSTOMER NATION SUPPLIER REGION]
	// MinWork          work=145380 (1.00x MinWork)
	// Prune best 1-way work=145380 (1.00x MinWork)
	// reverse ordering work=158506 (1.09x MinWork)
	// dual-stage       work=698174 (4.80x MinWork)
}

package experiments

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/planner"
	"repro/internal/strategy"
	"repro/internal/tpcd"
)

// Deep runs the planners on the deep, non-uniform TPC-D VDAG (second-level
// summaries Q3_BY_PRIORITY and NATION_REVENUE added): the regime Section 6
// targets, where MinWork's acyclicity guarantee no longer holds for every
// ordering and Prune's exhaustive 1-way search is the reference. The paper
// has no figure for this — it is the natural extension experiment its
// Sections 5.3/6 set up.
func Deep(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	res := Result{
		ID:    "deep",
		Title: "Deep non-uniform VDAG: MinWork vs Prune (Sections 5.3/6 extension)",
		PaperClaim: "outside tree/uniform VDAGs MinWork may fall back to " +
			"ModifyOrdering and lose optimality; Prune remains optimal over " +
			"1-way strategies",
	}
	tw, stats, err := staged(cfg, tpcd.Config{DeepVDAG: true}, tpcd.Mixed(cfg.ChangeFrac/2, cfg.ChangeFrac/2))
	if err != nil {
		return res, err
	}
	mw, err := planner.MinWork(tw.Graph, stats)
	if err != nil {
		return res, err
	}
	rowMW, err := measure(tw, "MinWork", mw.Strategy, stats, true)
	if err != nil {
		return res, err
	}
	if mw.Modified {
		rowMW.Marker = "desired ordering was cyclic; ModifyOrdering applied"
	} else {
		rowMW.Marker = "desired ordering acyclic"
	}
	res.Rows = append(res.Rows, rowMW)

	pr, err := planner.Prune(tw.Graph, cost.DefaultModel, stats, exec.RefCounts(tw.W))
	if err != nil {
		return res, err
	}
	rowPr, err := measure(tw, "Prune best 1-way", pr.Strategy, stats, true)
	if err != nil {
		return res, err
	}
	rowPr.Marker = searchEffort(pr)
	res.Rows = append(res.Rows, rowPr)

	rowDual, err := measure(tw, "dual-stage", strategy.DualStageVDAG(tw.Graph), stats, true)
	if err != nil {
		return res, err
	}
	res.Rows = append(res.Rows, rowDual)

	res.Measured = fmt.Sprintf("MinWork %d %s Prune's best 1-way %d (%s), Prune pricing %d ordering prefixes "+
		"of the %d orderings; dual-stage %.2f× Prune", rowMW.Work, rel(rowMW.Work, rowPr.Work), rowPr.Work,
		rowMW.Marker, pr.Examined, orderings(len(tw.Graph.ViewsWithParents())), float64(rowDual.Work)/float64(rowPr.Work))
	res.Notes = append(res.Notes,
		fmt.Sprintf("VDAG: %d views over %d levels, uniform=%v, tree=%v",
			len(tw.Graph.Views()), tw.Graph.MaxLevel()+1, tw.Graph.IsUniform(), tw.Graph.IsTree()),
		fmt.Sprintf("MinWork / Prune work ratio: %.3f (1.000 = MinWork matched the 1-way optimum)",
			float64(rowMW.Work)/float64(rowPr.Work)),
	)
	return res, nil
}

package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/planner"
	"repro/internal/strategy"
	"repro/internal/tpcd"
)

// sharedPlanBudgets are the shared byte budgets each planning leg runs
// under: effectively unbounded, and the registry's 64 MiB default.
var sharedPlanBudgets = []struct {
	label string
	bytes int64
}{
	{"unbounded", 1 << 40},
	{"64MiB", 64 << 20},
}

// SharedPlan measures sharing-aware strategy search against hint-based
// sharing on dual-stage windows. The "hint" legs run the dual-stage V-DAG
// strategy and let the executor's registry share whatever the after-the-fact
// analysis of that fixed strategy finds — the prior behavior. The "joint"
// legs plan with PruneShared: candidate orderings are costed by
// sharing-adjusted work (shared builds charged once across consumers, under
// the byte budget), join intermediates are elected alongside operands on net
// gain, and the winning plan's hints seed the registry. The headline is
// physical compute scans — modeled compute work minus the scans the registry
// and the per-Compute build cache elided — which joint planning drives below
// the hint-based dual-stage legs at every budget, while the states stay
// bit-identical (verified against recomputation). Sequential and DAG legs
// demonstrate the invariants hold under both scheduling modes.
func SharedPlan(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	res := Result{
		ID:    "sharedplan",
		Title: "Sharing-aware strategy search (joint plan + transient materializations)",
		PaperClaim: "choosing the maintenance plan and the shared transient " +
			"materializations jointly — instead of sharing whatever a " +
			"fixed dual-stage plan happens to expose — further shortens the " +
			"update window under the same transient byte budget",
	}
	for _, budget := range sharedPlanBudgets {
		for _, joint := range []bool{false, true} {
			label := "hint-based"
			if joint {
				label = "joint"
			}
			for _, mode := range []exec.Mode{exec.ModeSequential, exec.ModeDAG} {
				tw, err := tpcd.NewWarehouse(tpcd.Config{
					SF: cfg.SF, Seed: cfg.Seed,
					ShareComputation:  true,
					SharedBudgetBytes: budget.bytes,
				})
				if err != nil {
					return res, err
				}
				if _, err := tw.StageChanges(tpcd.Mixed(cfg.ChangeFrac, cfg.ChangeFrac/2)); err != nil {
					return res, err
				}
				var s strategy.Strategy
				if joint {
					stats, err := exec.PlanningStats(tw.W)
					if err != nil {
						return res, err
					}
					pres, err := planner.PruneShared(tw.Graph, cost.DefaultModel, stats, exec.RefCounts(tw.W),
						planner.SharedSearchOptions{
							Refs: exec.RefsOf(tw.W),
							Sharing: planner.SharingOptions{
								BudgetBytes: budget.bytes,
								Width:       exec.WidthOf(tw.W),
								Pairs:       exec.PairsOf(tw.W),
								Tuner:       tw.W.ShareTuner(),
							},
						})
					if err != nil {
						return res, err
					}
					tw.W.SetPlannedSharing(exec.HintsFromPlan(pres.Plan))
					s = pres.Strategy
				} else {
					s = strategy.DualStageVDAG(tw.Graph)
				}
				work, physical, row, err := runSharedPlanLeg(tw.W, s, mode)
				if err != nil {
					return res, err
				}
				row.Label = fmt.Sprintf("budget=%s %s %s", budget.label, label, mode)
				row.Work = work
				res.Rows = append(res.Rows, row)
				_ = physical
			}
		}
	}
	res.Notes = append(res.Notes,
		"hint-based = fixed dual-stage V-DAG strategy with after-the-fact sharing hints (PR 5 behavior); joint = PruneShared's sharing-adjusted search with elected join intermediates seeding the registry",
		"physical = compute-side operand scans actually performed: modeled comp work minus registry and build-cache savings; the modeled Work column never moves with sharing",
		"states are verified against recomputation on every leg; sequential and DAG rows share one modeled-work column per (budget, planner) pair",
	)
	return res, nil
}

// runSharedPlanLeg executes s on w under mode and returns the modeled total
// work, the physical compute scans, and the row's measured fields.
func runSharedPlanLeg(w *core.Warehouse, s strategy.Strategy, mode exec.Mode) (work, physical int64, row Row, err error) {
	rep, err := exec.Execute(w, s, exec.Options{Mode: mode, Workers: sharedCompWorkers})
	if err != nil {
		return 0, 0, row, err
	}
	work = rep.TotalWork()
	row.Elapsed = rep.Elapsed
	var saved int64
	var hits, misses int
	for _, step := range rep.Steps {
		saved += step.SharedTuplesSaved + step.CacheTuplesSaved
		hits += step.SharedHits
		misses += step.SharedMisses
	}
	physical = rep.CompWork - saved
	if err := w.VerifyAll(); err != nil {
		return 0, 0, row, fmt.Errorf("%s: %w", mode, err)
	}
	row.Predicted = -1
	row.Marker = fmt.Sprintf("physical=%d saved=%d shared=%d/%d", physical, saved, hits, hits+misses)
	return work, physical, row, nil
}

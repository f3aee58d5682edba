package experiments

import (
	"fmt"
	"time"

	"repro/internal/exec"
	"repro/internal/strategy"
	"repro/internal/tpcd"
)

// sharedCompWorkers is the bounded pool the staged/DAG legs run with.
const sharedCompWorkers = 4

// SharedComp measures window-wide cross-view shared computation on the
// warehouse that stresses it: Q3, Q5 and Q10 all read CUSTOMER, ORDER and
// LINEITEM, so under the dual-stage strategy their Comps hash the same
// operand states and deltas. With sharing on, the first Comp to need an
// operand's build-side hash table materializes it transiently; every sibling
// Comp reuses it instead of re-scanning the operand. The experiment runs the
// dual-stage strategy sharing-off and sharing-on under both staged and
// barrier-free DAG scheduling, for two scale factors (cfg.SF and 5×cfg.SF)
// under the paper's mixed change workload. Wall-clock is the best of 3 runs.
// The Work column is the linear metric and is identical down each scale
// factor: sharing elides physical scans, never modeled ones. Each sharing-on
// row reports the cross-view reuse rate and the operand tuples whose
// physical scan the shared tables elided — the fraction of compute-side work
// the window no longer performs.
func SharedComp(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	res := Result{
		ID:    "sharedcomp",
		Title: "Window-wide shared computation (cross-view CSE)",
		PaperClaim: "summary views defined over the same base views repeat work " +
			"during the update window; computing each shared subexpression once " +
			"and transiently materializing it for all consumers shortens the window",
	}
	for _, sf := range []float64{cfg.SF, 5 * cfg.SF} {
		mkWarehouse := func(share bool) (*tpcd.Warehouse, error) {
			tw, err := tpcd.NewWarehouse(tpcd.Config{
				SF: sf, Seed: cfg.Seed, ShareComputation: share,
			})
			if err != nil {
				return nil, err
			}
			if _, err := tw.StageChanges(tpcd.Mixed(cfg.ChangeFrac, cfg.ChangeFrac/2)); err != nil {
				return nil, err
			}
			return tw, nil
		}
		tw, err := mkWarehouse(false)
		if err != nil {
			return res, err
		}
		dual := strategy.DualStageVDAG(tw.Graph)

		for _, mode := range []exec.Mode{exec.ModeStaged, exec.ModeDAG} {
			var offElapsed time.Duration
			for _, share := range []bool{false, true} {
				var best exec.Report
				for trial := 0; trial < 3; trial++ {
					run, err := mkWarehouse(share)
					if err != nil {
						return res, err
					}
					rep, err := exec.Execute(run.W, dual, exec.Options{Mode: mode, Workers: sharedCompWorkers})
					if err != nil {
						return res, err
					}
					if trial == 0 {
						if err := run.W.VerifyAll(); err != nil {
							return res, err
						}
					}
					if trial == 0 || rep.Elapsed < best.Elapsed {
						best = rep
					}
				}
				// The per-Compute build cache sits in front of the registry,
				// so the registry is asked once per distinct operand per Comp
				// and the operand tuples a window does not re-scan are the
				// two layers' savings together.
				var hits, misses int
				var saved, cacheSaved int64
				for _, step := range best.Steps {
					hits += step.SharedHits
					misses += step.SharedMisses
					saved += step.SharedTuplesSaved
					cacheSaved += step.CacheTuplesSaved
				}
				label, marker := "share=off", ""
				if share {
					label = "share=on"
					elidedFrac := 0.0
					if best.CompWork > 0 {
						elidedFrac = float64(saved+cacheSaved) / float64(best.CompWork)
					}
					marker = fmt.Sprintf("shared %d/%d saved=%d cache-saved=%d (%.0f%% of comp work elided) peakB=%d speedup=%.2f",
						hits, hits+misses, saved, cacheSaved, 100*elidedFrac, best.SharedBytesPeak,
						float64(offElapsed)/float64(best.Elapsed))
				} else {
					offElapsed = best.Elapsed
				}
				res.Rows = append(res.Rows, Row{
					Label:     fmt.Sprintf("SF=%g %s %s", sf, mode, label),
					Work:      best.TotalWork(),
					Elapsed:   best.Elapsed,
					Predicted: -1,
					Marker:    marker,
				})
			}
		}
	}
	res.Notes = append(res.Notes,
		"strategy: dual-stage VDAG — Q3, Q5 and Q10 each Comp over their shared base views in one stage, so the same operand hash tables are needed across views",
		"Work is identical down each (SF, mode) pair: sharing elides physical operand scans, not modeled ones (the linear metric counts the operand once per term regardless)",
		"shared a/b = build-table lookups served from the window-wide registry, asked once per distinct operand per Comp (the per-Compute build cache sits in front); saved / cache-saved = operand tuples the registry / the build cache spared re-scanning; peakB = high-water transient footprint (bounded by the shared budget, default 64 MiB)",
		fmt.Sprintf("staged and DAG legs use a bounded pool of %d workers; 'speedup' is wall-clock vs the same mode's share=off row; best of 3 runs", sharedCompWorkers))
	return res, nil
}

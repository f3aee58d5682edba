package experiments

import (
	"fmt"
	"time"

	"repro/internal/exec"
	"repro/internal/planner"
	"repro/internal/strategy"
	"repro/internal/tpcd"
)

// stagedVsDAGWorkers is the bounded pool the DAG rows run with (the
// acceptance configuration of the barrier-free scheduler).
const stagedVsDAGWorkers = 4

// StagedVsDAG compares barrier-staged execution (Section 9) against
// barrier-free precedence-DAG scheduling on the same strategies: for two
// scale factors (cfg.SF and 5×cfg.SF — 0.002 and 0.01 at the defaults;
// raise -sf to reach 0.1) under the paper's mixed p% change workload, the
// MinWork and dual-stage strategies each run staged and DAG-scheduled with
// 4 workers. Wall-clock is the best of 3 runs; work metrics are measured
// per run and identical across modes. The DAG window should never exceed
// the staged window: dropping barriers only removes waiting.
func StagedVsDAG(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	res := Result{
		ID:    "stagedvsdag",
		Title: "Staged vs. barrier-free DAG scheduling",
		PaperClaim: "a staged plan makes every expression of stage k wait for the " +
			"slowest expression of stage k−1; scheduling the precedence DAG " +
			"directly shortens the window toward the critical path",
	}
	for _, sf := range []float64{cfg.SF, 5 * cfg.SF} {
		mkWarehouse := func() (*tpcd.Warehouse, error) {
			tw, err := tpcd.NewWarehouse(tpcd.Config{SF: sf, Seed: cfg.Seed})
			if err != nil {
				return nil, err
			}
			if _, err := tw.StageChanges(tpcd.Mixed(cfg.ChangeFrac, cfg.ChangeFrac/2)); err != nil {
				return nil, err
			}
			return tw, nil
		}
		tw, err := mkWarehouse()
		if err != nil {
			return res, err
		}
		stats, err := exec.PlanningStats(tw.W)
		if err != nil {
			return res, err
		}
		mw, err := planner.MinWork(tw.Graph, stats)
		if err != nil {
			return res, err
		}
		for _, v := range []struct {
			label string
			s     strategy.Strategy
		}{
			{"MinWork", mw.Strategy},
			{"dual-stage", strategy.DualStageVDAG(tw.Graph)},
		} {
			for _, mode := range []exec.Mode{exec.ModeStaged, exec.ModeDAG} {
				var best exec.Schedule
				for trial := 0; trial < 3; trial++ {
					run, err := mkWarehouse()
					if err != nil {
						return res, err
					}
					rep, err := exec.Execute(run.W, v.s, exec.Options{Mode: mode, Workers: stagedVsDAGWorkers})
					if err != nil {
						return res, err
					}
					if trial == 0 {
						if err := run.W.VerifyAll(); err != nil {
							return res, err
						}
					}
					if trial == 0 || rep.Elapsed < best.Elapsed {
						best = rep.Sched
					}
				}
				// The window bound the mode targets: the chain of stage
				// maxima for staged runs, the critical path for DAG runs.
				bound := best.SpanWork
				if mode == exec.ModeDAG {
					bound = best.CriticalPathWork
				}
				res.Rows = append(res.Rows, Row{
					Label:     fmt.Sprintf("SF=%g %s %s", sf, v.label, mode),
					Work:      best.TotalWork,
					Elapsed:   best.Elapsed,
					Predicted: float64(bound),
					Marker:    fmt.Sprintf("span=%d critpath=%d ×%d", best.SpanWork, best.CriticalPathWork, best.Workers),
				})
			}
		}
	}
	// Summarize the headline comparison: per (SF, strategy), DAG vs staged
	// wall clock.
	for i := 0; i+1 < len(res.Rows); i += 2 {
		staged, dag := res.Rows[i], res.Rows[i+1]
		verdict := "DAG ≤ staged"
		if dag.Elapsed > staged.Elapsed {
			verdict = "DAG slower (scheduling noise at this scale)"
		}
		res.Notes = append(res.Notes, fmt.Sprintf("%s: %s vs %s — %s",
			staged.Label, dag.Elapsed.Round(time.Microsecond),
			staged.Elapsed.Round(time.Microsecond), verdict))
	}
	res.Notes = append(res.Notes,
		"'predicted' is the mode's window bound from the same measured run: span work (staged) or critical-path work (DAG)",
		fmt.Sprintf("DAG rows use a bounded pool of %d workers; wall-clock is best of 3", stagedVsDAGWorkers))
	return res, nil
}

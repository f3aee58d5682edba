package experiments

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/exec"
	"repro/internal/strategy"
	"repro/internal/tpcd"
)

// TermParallel measures the term engine's width on the strategy that
// stresses it: the dual-stage VDAG strategy, whose multi-reference Comps
// evaluate 2^r−1 maintenance terms each (7 for Q3, 63 for Q5, 15 for Q10).
// It runs at the default width of 1 and then with ParallelTerms at worker
// budgets 1 (the same code with a pool attached), 2, 4 and 8, for two scale
// factors (cfg.SF and 5×cfg.SF — 0.002 and 0.01 at the defaults) under the
// paper's mixed change workload. Wall-clock
// is the best of 3 runs. Each row reports its build-cache hit rate
// (hits / lookups) and the physical operand tuples the shared build tables
// saved: the 63 terms of Comp(Q5, ·) probe the same handful of build-side
// operands, so nearly every build after the first is a cache hit. The Work
// column is the linear metric and is identical across all rows of one scale
// factor: the cache changes what the engine *does*, never what the metric
// *counts* — a Comp over r deltas still pays for the operand scan in each
// of its 2^r−1 terms. (1-way strategies like MinWork's have single-term
// Comps: nothing to share, nothing to overlap — this engine attacks the
// multi-term strategies the paper's Section 9 wants to parallelize.)
func TermParallel(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	res := Result{
		ID:    "termparallel",
		Title: "Morsel-parallel term evaluation with shared build caching",
		PaperClaim: "the 2^r−1 terms of one compute expression scan the same " +
			"operands against different delta combinations; evaluating terms " +
			"concurrently and sharing build-side hash tables shortens the window " +
			"without changing the work metric",
	}
	for _, sf := range []float64{cfg.SF, 5 * cfg.SF} {
		mkWarehouse := func(parTerms bool, workers int) (*tpcd.Warehouse, error) {
			tw, err := tpcd.NewWarehouse(tpcd.Config{
				SF: sf, Seed: cfg.Seed,
				ParallelTerms: parTerms, Workers: workers,
			})
			if err != nil {
				return nil, err
			}
			if _, err := tw.StageChanges(tpcd.Mixed(cfg.ChangeFrac, cfg.ChangeFrac/2)); err != nil {
				return nil, err
			}
			return tw, nil
		}
		tw, err := mkWarehouse(false, 0)
		if err != nil {
			return res, err
		}
		dual := strategy.DualStageVDAG(tw.Graph)

		var oneWorker time.Duration
		for _, c := range []struct {
			label    string
			parTerms bool
			workers  int
		}{
			{"default (width 1)", false, 0},
			{"par-terms w=1", true, 1},
			{"par-terms w=2", true, 2},
			{"par-terms w=4", true, 4},
			{"par-terms w=8", true, 8},
		} {
			var best exec.Report
			for trial := 0; trial < 3; trial++ {
				run, err := mkWarehouse(c.parTerms, c.workers)
				if err != nil {
					return res, err
				}
				rep, err := exec.Execute(run.W, dual, exec.Options{Validate: true})
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
			var hits, misses int
			var saved int64
			for _, step := range best.Steps {
				hits += step.CacheHits
				misses += step.CacheMisses
				saved += step.CacheTuplesSaved
			}
			if oneWorker == 0 {
				oneWorker = best.Elapsed
			}
			hitRate := 0.0
			if hits+misses > 0 {
				hitRate = float64(hits) / float64(hits+misses)
			}
			marker := fmt.Sprintf("cache %d/%d (%.0f%%) saved=%d speedup=%.2f",
				hits, hits+misses, 100*hitRate, saved,
				float64(oneWorker)/float64(best.Elapsed))
			res.Rows = append(res.Rows, Row{
				Label:     fmt.Sprintf("SF=%g %s", sf, c.label),
				Work:      best.TotalWork(),
				Elapsed:   best.Elapsed,
				Predicted: -1,
				Marker:    marker,
			})
		}
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("host: %d CPU(s), GOMAXPROCS=%d — worker counts beyond the core count measure scheduling overhead, not speedup",
			runtime.NumCPU(), runtime.GOMAXPROCS(0)),
		"strategy: dual-stage VDAG (multi-term Comps: 7 for Q3, 63 for Q5, 15 for Q10); 1-way strategies have single-term Comps with nothing to share or overlap",
		"Work is identical down each scale factor: shared builds save physical scans, not modeled ones (OperandTuples counts the operand once per term regardless)",
		"'speedup' is wall-clock relative to the default row (width 1: terms run one after another on the caller); best of 3 runs",
		"cache a/b (r%) = build-table lookups served from the shared cache; saved = operand tuples not re-scanned thanks to sharing")
	return res, nil
}

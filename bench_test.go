// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (Table 1, Figures 12–15, the Section 9 parallel analysis),
// plus micro-benchmarks of the planners and the engine primitives.
//
// Each figure benchmark executes the strategies of that experiment on
// clones of a shared pre-staged TPC-D warehouse and reports measured work
// as a custom metric, so `go test -bench=.` regenerates every comparison
// the paper reports.
package warehouse

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/planner"
	"repro/internal/strategy"
	"repro/internal/tpcd"
)

// benchSF keeps the benchmarks quick; raise for larger-scale runs.
const benchSF = 0.001

var benchState struct {
	once  sync.Once
	err   error
	tw    *tpcd.Warehouse // all three summary views, 10% decrease staged
	q3    *tpcd.Warehouse // Q3-only warehouse, C/O/L decrease staged
	stats cost.Stats
	q3St  cost.Stats
}

func benchSetup(b *testing.B) {
	benchState.once.Do(func() {
		tw, err := tpcd.NewWarehouse(tpcd.Config{SF: benchSF, Seed: 7})
		if err != nil {
			benchState.err = err
			return
		}
		if _, err := tw.StageChanges(tpcd.UniformDecrease(0.10)); err != nil {
			benchState.err = err
			return
		}
		stats, err := exec.PlanningStats(tw.W)
		if err != nil {
			benchState.err = err
			return
		}
		q3, err := tpcd.NewWarehouse(tpcd.Config{SF: benchSF, Seed: 7, Queries: []string{tpcd.Q3}})
		if err != nil {
			benchState.err = err
			return
		}
		if _, err := q3.StageChanges(tpcd.COLDecrease(0.10)); err != nil {
			benchState.err = err
			return
		}
		q3St, err := exec.PlanningStats(q3.W)
		if err != nil {
			benchState.err = err
			return
		}
		benchState.tw, benchState.q3 = tw, q3
		benchState.stats, benchState.q3St = stats, q3St
	})
	if benchState.err != nil {
		b.Fatal(benchState.err)
	}
}

// runStrategy executes s on a clone and reports measured work.
func runStrategy(b *testing.B, tw *tpcd.Warehouse, s strategy.Strategy) {
	b.Helper()
	var work int64
	for i := 0; i < b.N; i++ {
		run := tw.W.Clone()
		rep, err := exec.Execute(run, s, exec.Options{})
		if err != nil {
			b.Fatal(err)
		}
		work = rep.TotalWork()
	}
	b.ReportMetric(float64(work), "work")
}

// BenchmarkTable1 regenerates Table 1: counting the strategy space.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for n := 1; n <= 6; n++ {
			if _, err := strategy.CountViewStrategies(n); err != nil {
				b.Fatal(err)
			}
		}
	}
	n6, err := strategy.CountViewStrategies(6)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(n6), "strategies_n6")
}

// BenchmarkFig12 measures the Experiment 1 strategies for Q3: the
// MinWorkSingle 1-way strategy vs. the dual-stage strategy (the two ends of
// the Figure 12 bar chart).
func BenchmarkFig12(b *testing.B) {
	benchSetup(b)
	children := benchState.q3.W.Children(tpcd.Q3)
	mws, err := planner.MinWorkSingle(tpcd.Q3, children, benchState.q3St)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("MinWorkSingle", func(b *testing.B) { runStrategy(b, benchState.q3, mws) })
	b.Run("DualStage", func(b *testing.B) {
		runStrategy(b, benchState.q3, strategy.DualStageView(tpcd.Q3, children))
	})
	b.Run("AllThirteen", func(b *testing.B) {
		parts := strategy.OrderedPartitions(children)
		for i := 0; i < b.N; i++ {
			for _, p := range parts {
				run := benchState.q3.W.Clone()
				if _, err := exec.Execute(run, strategy.PartitionedView(tpcd.Q3, p), exec.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkFig13 measures the Experiment 2 strategies for the six-view Q5.
func BenchmarkFig13(b *testing.B) {
	benchSetup(b)
	q5, err := tpcd.NewWarehouse(tpcd.Config{SF: benchSF, Seed: 7, Queries: []string{tpcd.Q5}})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := q5.StageChanges(tpcd.UniformDecrease(0.10)); err != nil {
		b.Fatal(err)
	}
	stats, err := exec.PlanningStats(q5.W)
	if err != nil {
		b.Fatal(err)
	}
	children := q5.W.Children(tpcd.Q5)
	mws, err := planner.MinWorkSingle(tpcd.Q5, children, stats)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("MinWorkSingle", func(b *testing.B) { runStrategy(b, q5, mws) })
	b.Run("DualStage", func(b *testing.B) {
		runStrategy(b, q5, strategy.DualStageView(tpcd.Q5, children))
	})
}

// BenchmarkFig14 measures the Experiment 3 sweep point p=10% for the three
// compared strategies (the full sweep is in cmd/experiments).
func BenchmarkFig14(b *testing.B) {
	benchSetup(b)
	children := benchState.q3.W.Children(tpcd.Q3)
	mws, err := planner.MinWorkSingle(tpcd.Q3, children, benchState.q3St)
	if err != nil {
		b.Fatal(err)
	}
	best2 := strategy.PartitionedView(tpcd.Q3, [][]string{{tpcd.LineItem}, {tpcd.Order, tpcd.Customer}})
	b.Run("MinWorkSingle", func(b *testing.B) { runStrategy(b, benchState.q3, mws) })
	b.Run("Best2Way", func(b *testing.B) { runStrategy(b, benchState.q3, best2) })
	b.Run("DualStage", func(b *testing.B) {
		runStrategy(b, benchState.q3, strategy.DualStageView(tpcd.Q3, children))
	})
}

// BenchmarkFig15 measures the Experiment 4 VDAG strategies.
func BenchmarkFig15(b *testing.B) {
	benchSetup(b)
	mw, err := planner.MinWork(benchState.tw.Graph, benchState.stats)
	if err != nil {
		b.Fatal(err)
	}
	rev := append([]string(nil), mw.UsedOrdering...)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	revStrategy, err := planner.ConstructEG(benchState.tw.Graph, rev).TopoSort()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("MinWork", func(b *testing.B) { runStrategy(b, benchState.tw, mw.Strategy) })
	b.Run("Reverse", func(b *testing.B) { runStrategy(b, benchState.tw, revStrategy) })
	b.Run("DualStage", func(b *testing.B) {
		runStrategy(b, benchState.tw, strategy.DualStageVDAG(benchState.tw.Graph))
	})
}

// BenchmarkPlanners isolates planning cost (no execution).
func BenchmarkPlanners(b *testing.B) {
	benchSetup(b)
	b.Run("MinWorkSingle", func(b *testing.B) {
		children := benchState.q3.W.Children(tpcd.Q3)
		for i := 0; i < b.N; i++ {
			if _, err := planner.MinWorkSingle(tpcd.Q3, children, benchState.q3St); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("MinWork", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := planner.MinWork(benchState.tw.Graph, benchState.stats); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Prune", func(b *testing.B) {
		refs := exec.RefCounts(benchState.tw.W)
		for i := 0; i < b.N; i++ {
			if _, err := planner.Prune(benchState.tw.Graph, cost.DefaultModel, benchState.stats, refs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEnginePrimitives isolates the engine's Comp and Inst costs.
func BenchmarkEnginePrimitives(b *testing.B) {
	benchSetup(b)
	b.Run("ComputeOneWay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run := benchState.tw.W.Clone()
			if _, err := run.Compute(tpcd.Q3, []string{tpcd.LineItem}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ComputeDual", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run := benchState.tw.W.Clone()
			if _, err := run.Compute(tpcd.Q3, []string{tpcd.Customer, tpcd.Order, tpcd.LineItem}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("InstallBase", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run := benchState.tw.W.Clone()
			if _, err := run.Install(tpcd.LineItem); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Recompute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := benchState.tw.W.Recompute(tpcd.Q3); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("CloneWarehouse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = benchState.tw.W.Clone()
		}
	})
}

// benchTermState holds the SF 0.01 mixed-workload warehouse the term-
// parallel Compute benchmarks share (built once; ~0.5s).
var benchTermState struct {
	once sync.Once
	err  error
	tw   *tpcd.Warehouse
}

func benchTermSetup(b *testing.B) *tpcd.Warehouse {
	benchTermState.once.Do(func() {
		tw, err := tpcd.NewWarehouse(tpcd.Config{SF: 0.01, Seed: 7})
		if err != nil {
			benchTermState.err = err
			return
		}
		if _, err := tw.StageChanges(tpcd.Mixed(0.10, 0.05)); err != nil {
			benchTermState.err = err
			return
		}
		benchTermState.tw = tw
	})
	if benchTermState.err != nil {
		b.Fatal(benchTermState.err)
	}
	return benchTermState.tw
}

// BenchmarkComputeDualStageQ5 measures the 63-term Comp(Q5, all six base
// views) — the multi-term expression the dual-stage strategy pays for — at
// SF 0.01 under the mixed change workload, its terms run one after another
// by the one term engine. Compute only accumulates pending changes, so
// iterations repeat identical work on the same warehouse.
func BenchmarkComputeDualStageQ5(b *testing.B) {
	tw := benchTermSetup(b)
	children := tw.W.Children(tpcd.Q5)
	w := tw.W.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	var saved int64
	for i := 0; i < b.N; i++ {
		rep, err := w.Compute(tpcd.Q5, children)
		if err != nil {
			b.Fatal(err)
		}
		saved = rep.CacheTuplesSaved
	}
	b.ReportMetric(float64(saved), "tuples_saved")
}

// BenchmarkComputeProbeAllocs isolates the probe-path allocation diet on the
// single-term Comp(Q3, {LINEITEM}): the hot loop reuses key-encoding buffers
// and a scratch output row, so allocs/op stays proportional to output rows,
// not probe rows.
func BenchmarkComputeProbeAllocs(b *testing.B) {
	tw := benchTermSetup(b)
	w := tw.W.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Compute(tpcd.Q3, []string{tpcd.LineItem}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexedExecution is a MinWork TPC-D window on the default engine
// in its steady state: a first window has run, so the join indexes through
// which delta-driven terms read table state are resident, and each
// iteration clones the warehouse and runs the next window. The work
// reported is the linear metric — every operand charged as scanned — and
// beside it the probes made, the rows they yielded, and the operand tuples
// no scan read, which must dwarf the probes. make bench-smoke runs it once,
// so that check runs in CI.
func BenchmarkIndexedExecution(b *testing.B) {
	tw, err := tpcd.NewWarehouse(tpcd.Config{SF: benchSF, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	plan := func() strategy.Strategy {
		if _, err := tw.StageChanges(tpcd.UniformDecrease(0.10)); err != nil {
			b.Fatal(err)
		}
		stats, err := exec.PlanningStats(tw.W)
		if err != nil {
			b.Fatal(err)
		}
		mw, err := planner.MinWork(tw.Graph, stats)
		if err != nil {
			b.Fatal(err)
		}
		return mw.Strategy
	}
	if _, err := exec.Execute(tw.W, plan(), exec.Options{}); err != nil {
		b.Fatal(err)
	}
	s := plan()
	b.ResetTimer()
	var work, probes, rows, saved int64
	for i := 0; i < b.N; i++ {
		run := tw.W.Clone()
		rep, err := exec.Execute(run, s, exec.Options{})
		if err != nil {
			b.Fatal(err)
		}
		work, probes, rows, saved = rep.TotalWork(), 0, 0, 0
		for _, step := range rep.Steps {
			probes += step.IndexProbes
			rows += step.IndexRows
			saved += step.IndexTuplesSaved
		}
	}
	if saved < work/2 || probes*4 > saved {
		b.Fatalf("work %d, %d index probes, %d operand tuples saved: want most of the work saved by far fewer probes", work, probes, saved)
	}
	b.ReportMetric(float64(work), "work")
	b.ReportMetric(float64(probes), "probes")
	b.ReportMetric(float64(rows), "index_rows")
	b.ReportMetric(float64(saved), "saved")
}

// BenchmarkAblationSkipEmptyDeltas quantifies the footnote-5 optimization:
// with only C, O, L changed, the Q5/Q10 comps over S, N, R are skippable.
func BenchmarkAblationSkipEmptyDeltas(b *testing.B) {
	for _, skip := range []bool{false, true} {
		name := "off"
		if skip {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			tw, err := tpcd.NewWarehouse(tpcd.Config{SF: benchSF, Seed: 7, Options: core.Options{SkipEmptyDeltas: skip}})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := tw.StageChanges(tpcd.COLDecrease(0.10)); err != nil {
				b.Fatal(err)
			}
			stats, err := exec.PlanningStats(tw.W)
			if err != nil {
				b.Fatal(err)
			}
			mw, err := planner.MinWork(tw.Graph, stats)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var work int64
			for i := 0; i < b.N; i++ {
				run := tw.W.Clone()
				rep, err := exec.Execute(run, mw.Strategy, exec.Options{})
				if err != nil {
					b.Fatal(err)
				}
				work = rep.TotalWork()
			}
			b.ReportMetric(float64(work), "work")
		})
	}
}

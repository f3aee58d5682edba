package warehouse_test

import (
	"math/rand"
	"reflect"
	"testing"

	warehouse "repro"
	"repro/internal/check"
	"repro/internal/exec"
	"repro/internal/planner"
	"repro/internal/tpcd"
)

// TestSharedPlannerIsPrune: SharedPlanner stays only because the frozen
// benchmark plans with it, and it plans as PrunePlanner — the same strategy,
// ordering, estimate and search effort — under its own name, on the TPC-D
// warehouse and on Random catalogs. A window it plans runs Prune's strategy
// and lands on a state recomputation agrees with.
func TestSharedPlannerIsPrune(t *testing.T) {
	tw, err := tpcd.NewWarehouse(tpcd.Config{SF: 0.001, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tw.StageChanges(tpcd.Mixed(0.05, 0.05)); err != nil {
		t.Fatal(err)
	}
	ws := []*warehouse.Warehouse{warehouse.FromCore(tw.W)}
	for seed := int64(0); seed < 20; seed++ {
		w := check.Build(t, seed)
		check.Stage(t, w, rand.New(rand.NewSource(seed)))
		ws = append(ws, w)
	}
	for i, w := range ws {
		pr, err := w.Plan(warehouse.PrunePlanner)
		if err != nil {
			t.Fatal(err)
		}
		sh, err := w.Plan(warehouse.SharedPlanner)
		if err != nil {
			t.Fatal(err)
		}
		if sh.Planner != warehouse.SharedPlanner {
			t.Errorf("warehouse %d: Plan(shared) reports planner %q", i, sh.Planner)
		}
		sh.Planner = pr.Planner
		if !reflect.DeepEqual(sh, pr) {
			t.Errorf("warehouse %d: Plan(shared) = %+v\nPlan(prune) = %+v", i, sh, pr)
		}
		win, err := w.RunWindowOpts(warehouse.WindowOptions{Planner: warehouse.SharedPlanner})
		if err != nil {
			t.Fatal(err)
		}
		if win.Planner != warehouse.SharedPlanner || win.Plan.Strategy.String() != pr.Strategy.String() {
			t.Errorf("warehouse %d: the window ran %s as %q, want Prune's %s", i, win.Plan.Strategy, win.Planner, pr.Strategy)
		}
		if err := w.Verify(); err != nil {
			t.Errorf("warehouse %d: %v", i, err)
		}
	}
}

// TestBenchOnlyOptionsAreInert: Options.ShareComputation, MemoryBudgetBytes,
// ParallelTerms and Workers, and planner.PruneShared's options, stay only
// because the frozen benchmark sets them, and change nothing: PruneShared,
// called as the benchmark calls it, returns Prune's result. Windows
// planned as the benchmark plans them (SharedPlanner) alternate with
// dual-stage ones. A SharedPlanner window on the Siblings catalog builds
// nothing: each Comp(Vi, {D}) probes A's and B's resident indexes, A being
// a summary view whose table is indexed like any other. So the options are
// shown inert under builds only by the dual-stage windows, whose every
// Comp(Vi, {D, A, B}) hashes the same deltas — the builds a window-wide
// cache once shared and a 1-byte budget once spilled — and under the
// benchmark's planner only on windows that build nothing. A warehouse given
// every one of the options
// plans the same strategies, does the same work step by step and lands on
// the same state as one given none, each Comp building the same tables for
// itself, with every spill and shared counter and the reserved peak at 0.
func TestBenchOnlyOptionsAreInert(t *testing.T) {
	inert := warehouse.Options{ShareComputation: true, MemoryBudgetBytes: 1, ParallelTerms: true, Workers: 2}
	a := check.BuildCatalog(t, check.Siblings, 1, warehouse.Options{})
	b := check.BuildCatalog(t, check.Siblings, 1, inert)
	ra, rb := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
	var hashed int
	for win := 1; win <= 4; win++ {
		check.Stage(t, a, ra)
		check.Stage(t, b, rb)
		pruneSharedIsPrune(t, b)
		opts := warehouse.WindowOptions{Planner: warehouse.SharedPlanner, Mode: warehouse.ModeDAG, Workers: 2}
		if win%2 == 0 {
			opts.Planner = warehouse.DualStagePlanner
		}
		wa, err := a.RunWindowOpts(opts)
		if err != nil {
			t.Fatal(err)
		}
		wb, err := b.RunWindowOpts(opts)
		if err != nil {
			t.Fatal(err)
		}
		if wb.Plan.Strategy.String() != wa.Plan.Strategy.String() || wb.Plan.EstimatedWork != wa.Plan.EstimatedWork {
			t.Fatalf("window %d: the inert options planned %s (est %v), none planned %s (est %v)",
				win, wb.Plan.Strategy, wb.Plan.EstimatedWork, wa.Plan.Strategy, wa.Plan.EstimatedWork)
		}
		for i, step := range wb.Report.Steps {
			if want := wa.Report.Steps[i]; step.Expr.Key() != want.Expr.Key() || step.Work != want.Work ||
				step.CacheHits != want.CacheHits || step.CacheMisses != want.CacheMisses {
				t.Errorf("window %d step %d: %s work=%d cache %d/%d with the inert options, %s work=%d cache %d/%d without",
					win, i, step.Expr, step.Work, step.CacheHits, step.CacheMisses, want.Expr, want.Work, want.CacheHits, want.CacheMisses)
			}
		}
		if da, db := a.StateDigest(), b.StateDigest(); da != db {
			t.Errorf("window %d: state digest %016x with the inert options, %016x without", win, db, da)
		}
		c := wb.Counters()
		if c.SpillCount != 0 || c.SpilledBytes != 0 || c.SpillReReadBytes != 0 || c.PeakReservedBytes != 0 ||
			c.SharedHits != 0 || c.SharedMisses != 0 || c.SharedTuplesSaved != 0 || c.SharedBytesPeak != 0 {
			t.Errorf("window %d: counters %+v, want every spill and shared counter at 0", win, c)
		}
		hashed += c.CacheMisses
	}
	if hashed == 0 {
		t.Fatal("no window hashed a build: the test exercised nothing")
	}
	if c := b.Tally(); c.SharedHits != 0 || c.SharedMisses != 0 || c.SharedTuplesSaved != 0 || c.SharedBytesPeak != 0 {
		t.Errorf("tally %+v, want every shared counter at 0", c)
	}
}

// pruneSharedIsPrune fails t unless planner.PruneShared, given the options
// bench/layers.go gives it, returns what planner.Prune does on w's staged
// changes.
func pruneSharedIsPrune(t *testing.T, w *warehouse.Warehouse) {
	t.Helper()
	g, err := w.Graph()
	if err != nil {
		t.Fatal(err)
	}
	stats, err := w.PlanningStats()
	if err != nil {
		t.Fatal(err)
	}
	c := w.Internal()
	want, err := planner.Prune(g, warehouse.DefaultCostModel, stats, exec.RefCounts(c))
	if err != nil {
		t.Fatal(err)
	}
	got, err := planner.PruneShared(g, warehouse.DefaultCostModel, stats, exec.RefCounts(c), planner.SharedSearchOptions{
		Refs: exec.RefsOf(c),
		Sharing: planner.SharingOptions{
			Width: exec.WidthOf(c), Pairs: exec.PairsOf(c), Tuner: c.ShareTuner(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("PruneShared = %+v\nPrune = %+v", got, want)
	}
}

// TestRunWindowSharedPlanner runs a window planned by SharedPlanner end to
// end on the Siblings catalog, in each mode that orders its steps: the
// window reports the planner asked for, state stays correct, and a
// differently planned window after it keeps it correct.
func TestRunWindowSharedPlanner(t *testing.T) {
	for _, mode := range []warehouse.Mode{warehouse.ModeSequential, warehouse.ModeStaged} {
		t.Run(string(mode), func(t *testing.T) {
			w := check.BuildCatalog(t, check.Siblings, 1)
			rng := rand.New(rand.NewSource(3))
			check.Stage(t, w, rng)
			win, err := w.RunWindowOpts(warehouse.WindowOptions{Planner: warehouse.SharedPlanner, Mode: mode, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if win.Planner != warehouse.SharedPlanner {
				t.Errorf("planner = %q", win.Planner)
			}
			if err := w.Verify(); err != nil {
				t.Fatal(err)
			}

			check.Stage(t, w, rng)
			if _, err := w.RunWindowOpts(warehouse.WindowOptions{Planner: warehouse.MinWorkPlanner, Mode: mode, Workers: 2}); err != nil {
				t.Fatal(err)
			}
			if err := w.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSharedPlannerMatchesPlainResults: a SharedPlanner window lands on the
// same view states as a MinWork window over the same changes.
func TestSharedPlannerMatchesPlainResults(t *testing.T) {
	plain := check.BuildCatalog(t, check.Siblings, 1)
	shared := check.BuildCatalog(t, check.Siblings, 1)
	check.Stage(t, plain, rand.New(rand.NewSource(5)))
	check.Stage(t, shared, rand.New(rand.NewSource(5)))
	if _, err := plain.RunWindowOpts(warehouse.WindowOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := shared.RunWindowOpts(warehouse.WindowOptions{Planner: warehouse.SharedPlanner}); err != nil {
		t.Fatal(err)
	}
	if dp, ds := plain.StateDigest(), shared.StateDigest(); dp != ds {
		t.Errorf("state digest %016x after the shared window, %016x after the plain one", ds, dp)
	}
	if err := shared.Verify(); err != nil {
		t.Fatal(err)
	}
}

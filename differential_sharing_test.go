package warehouse_test

import (
	"math/rand"
	"testing"

	warehouse "repro"
	"repro/internal/check"
	"repro/internal/check/trial"
)

// catalogs is n seeded random catalogs and, after them, the sharing fixture:
// the random catalogs mostly join plain tables, read through resident indexes,
// so the fixture — whose every Comp joins a delta, an aggregate store (the
// build that is shared) and a plain table (the index step) — is
// what makes the tables below exercise something.
func catalogs(n, short int64) []check.Point {
	var out []check.Point
	for seed := range trial.Seeds(n, short) {
		out = append(out, check.Point{Seed: 99105 + seed})
	}
	return append(out, check.Point{Catalog: check.Siblings})
}

// TestSharingOnOffDifferential: the sharing points. Every window is planned
// by the sharing-aware search and run with the cache kept for the window, in
// every scheduling mode; trial.Run holds it to the run that keeps the cache per Comp — sharing elides
// scans, never results or the metric. The legs must register hits somewhere.
func TestSharingOnOffDifferential(t *testing.T) {
	var sum trial.Tally
	for _, p := range catalogs(4, 2) {
		for i, mode := range []warehouse.Mode{warehouse.ModeSequential, warehouse.ModeStaged, warehouse.ModeDAG} {
			p.Planner, p.Share, p.Windows = "shared", true, 2
			p.Mode, p.Workers = mode, i+1
			sum.Add(trial.Run(t, p))
		}
	}
	if sum.SharedHits == 0 || sum.SharedTuplesSaved == 0 {
		t.Fatalf("the sharing legs never shared (hits=%d saved=%d): the table exercised nothing", sum.SharedHits, sum.SharedTuplesSaved)
	}
}

// TestMemoryBudgetIsInert: Options.MemoryBudgetBytes, ParallelTerms and
// Workers stay only because the frozen benchmark sets them, and change
// nothing. On the Siblings catalog every Comp(Vi, {D}) hashes A's state — the
// build a 1-byte budget once spilled — and a warehouse given that budget and
// a term engine of two workers plans the same strategies, does the same work
// step by step and lands on the same state as one given none of them, with
// every spill counter and the reserved peak at 0.
func TestMemoryBudgetIsInert(t *testing.T) {
	plain := warehouse.Options{ShareComputation: true}
	inert := plain
	inert.MemoryBudgetBytes, inert.ParallelTerms, inert.Workers = 1, true, 2
	a := check.BuildCatalog(t, check.Siblings, 1, plain)
	b := check.BuildCatalog(t, check.Siblings, 1, inert)
	ra, rb := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
	opts := warehouse.WindowOptions{Planner: warehouse.SharedPlanner, Mode: warehouse.ModeDAG, Workers: 2}
	var hashed int
	for win := 1; win <= 3; win++ {
		check.Stage(t, a, ra)
		check.Stage(t, b, rb)
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
			if want := wa.Report.Steps[i]; step.Expr.Key() != want.Expr.Key() || step.Work != want.Work {
				t.Errorf("window %d step %d: %s work=%d with the inert options, %s work=%d without", win, i, step.Expr, step.Work, want.Expr, want.Work)
			}
		}
		if da, db := a.StateDigest(), b.StateDigest(); da != db {
			t.Errorf("window %d: state digest %016x with the inert options, %016x without", win, db, da)
		}
		if c := wb.Counters(); c.SpillCount != 0 || c.SpilledBytes != 0 || c.SpillReReadBytes != 0 || c.PeakReservedBytes != 0 {
			t.Errorf("window %d: spill counters %+v, want all 0", win, c)
		}
		hashed += wa.Counters().CacheMisses
	}
	if hashed == 0 {
		t.Fatal("no window hashed a build: the test exercised nothing")
	}
}

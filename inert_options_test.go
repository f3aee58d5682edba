package warehouse_test

import (
	"math/rand"
	"testing"

	warehouse "repro"
	"repro/internal/check"
)

// TestBenchOnlyOptionsAreInert: Options.ShareComputation, MemoryBudgetBytes,
// ParallelTerms and Workers stay only because the frozen benchmark sets
// them, and change nothing. On the Siblings catalog every Comp(Vi, {D})
// hashes A's state — the build a window-wide cache once shared and a 1-byte
// budget once spilled — and a warehouse given every one of them plans the
// same strategies, does the same work step by step and lands on the same
// state as one given none, each Comp building the same tables for itself,
// with every spill and shared counter and the reserved peak at 0.
func TestBenchOnlyOptionsAreInert(t *testing.T) {
	inert := warehouse.Options{ShareComputation: true, MemoryBudgetBytes: 1, ParallelTerms: true, Workers: 2}
	a := check.BuildCatalog(t, check.Siblings, 1, warehouse.Options{})
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

package warehouse_test

import (
	"testing"

	warehouse "repro"
	"repro/internal/check"
	"repro/internal/check/trial"
)

// catalogs is n seeded random catalogs and, after them, the sharing fixture:
// the random catalogs mostly join plain tables, read through resident indexes,
// so the fixture — whose every Comp joins a delta, an aggregate store (the
// build that is shared, or spills) and a plain table (the index step) — is
// what makes the tables below exercise something.
func catalogs(n, short int64) []check.Point {
	var out []check.Point
	for seed := range trial.Seeds(n, short) {
		out = append(out, check.Point{Seed: 99105 + seed})
	}
	return append(out, check.Point{Catalog: check.Siblings})
}

// TestBoundedMemoryDifferential: the memory-budget points of the one
// differential harness (internal/check, DESIGN.md "One oracle"). Streams of
// five windows run at 1 MiB and at 1 byte (everything spills), in every
// scheduling mode; trial.Run holds each window to the bags, installed-delta
// digests and step-by-step Work of the unbounded sequential run — spilling
// changes bytes moved, never results. The starved legs must spill somewhere,
// and somewhere in a Comp that also probes a resident join index.
func TestBoundedMemoryDifferential(t *testing.T) {
	var starved trial.Tally
	for _, p := range catalogs(6, 2) {
		for i, mode := range []warehouse.Mode{warehouse.ModeSequential, warehouse.ModeStaged, warehouse.ModeDAG} {
			p.Mode, p.Workers, p.Windows = mode, 1+(int(p.Seed)+i)%4, 5
			p.Budget = 1 << 20
			trial.Run(t, p)
			p.Budget = 1
			starved.Add(trial.Run(t, p))
		}
	}
	if starved.SpillCount == 0 || starved.SpillsBesideProbes == 0 {
		t.Fatalf("the starved legs spilled %d builds, in %d steps that also probed an index: the table exercised nothing", starved.SpillCount, starved.SpillsBesideProbes)
	}
}

// TestSharingOnOffDifferential: the sharing points. Every window is planned
// by the sharing-aware search and run with the cache kept for the window, in every scheduling mode, at engine widths 1 and 2;
// trial.Run holds it to the run that keeps the cache per Comp — sharing elides
// scans, never results or the metric. The legs must register hits somewhere.
func TestSharingOnOffDifferential(t *testing.T) {
	var sum trial.Tally
	for _, p := range catalogs(4, 2) {
		for i, mode := range []warehouse.Mode{warehouse.ModeSequential, warehouse.ModeStaged, warehouse.ModeDAG} {
			p.Planner, p.Share, p.Windows = "shared", true, 2
			p.Mode, p.Workers, p.Width = mode, i+1, 1+(int(p.Seed)+i)%2
			sum.Add(trial.Run(t, p))
		}
	}
	if sum.SharedHits == 0 || sum.SharedTuplesSaved == 0 {
		t.Fatalf("the sharing legs never shared (hits=%d saved=%d): the table exercised nothing", sum.SharedHits, sum.SharedTuplesSaved)
	}
}

package exec_test

// The scheduler's points of the one differential harness (internal/check,
// DESIGN.md "One oracle"); what trial.Run asserts of a point is the same for
// every table.

import (
	"testing"

	warehouse "repro"
	"repro/internal/check"
	"repro/internal/check/trial"
)

// TestDifferentialExecutors: 100 seeded catalogs, the planner alternating
// dual-stage and MinWork, each through the points of mode × scheduler workers
// × engine width × sharing.
func TestDifferentialExecutors(t *testing.T) {
	for seed := range trial.Seeds(100, 15) {
		wk := 1 + int(seed*5%8)
		mixed := []warehouse.Mode{warehouse.ModeStaged, warehouse.ModeDAG}[seed%2]
		for _, p := range []check.Point{
			{Mode: warehouse.ModeStaged},
			{Mode: warehouse.ModeDAG, Workers: wk},
			// Both levels composed: DAG scheduling across expressions and a
			// wide term engine inside each Comp, under one worker budget.
			{Mode: warehouse.ModeDAG, Workers: wk, Width: wk},
			{Share: true},
			{Mode: mixed, Workers: wk, Width: wk * int(seed%2), Share: true},
		} {
			p.Seed, p.Planner = seed, []string{"dualstage", "minwork"}[seed%2]
			trial.Run(t, p)
		}
	}
}

// TestFuzzRandomWarehouses: over 60 more catalogs the plans of MinWork, Prune
// and dual-stage each validate, execute and land on recomputation — and so on
// each other.
func TestFuzzRandomWarehouses(t *testing.T) {
	for seed := range trial.Seeds(60, 10) {
		for _, planner := range []string{"minwork", "prune", "dualstage"} {
			trial.Run(t, check.Point{Seed: 20260705 + seed, Planner: planner})
		}
	}
}

// TestWindowCacheInvalidationDifferential is the property test of the one
// line the window-lived build cache's correctness rests on: Install(V) drops
// the builds made from V's state and from δV (check.Invalidation, check.OneWay;
// under dual-stage the siblings' multi-delta terms build the deltas, which
// their views' installs then drop). Every point of mode × engine width ×
// memory budget, sharing on, must land where the sharing-off sequential run
// does. The canary: with buildCache.invalidate's body emptied this fails.
func TestWindowCacheInvalidationDifferential(t *testing.T) {
	var sum trial.Tally
	for seed := range trial.Seeds(6, 2) {
		for _, mode := range []warehouse.Mode{warehouse.ModeSequential, warehouse.ModeStaged, warehouse.ModeDAG} {
			for _, width := range []int{1, 2} {
				for _, budget := range []int64{0, 1 << 20, 1} {
					sum.Add(trial.Run(t, check.Point{
						Seed: seed, Catalog: check.Invalidation, Planner: []string{"oneway", "oneway", "dualstage"}[seed%3],
						Mode: mode, Workers: 3, Width: width, Budget: budget, Share: true,
					}))
				}
			}
		}
	}
	if sum.SharedHits == 0 || sum.SpillCount == 0 || sum.Rebuilds == 0 {
		t.Fatalf("%d shared hits, %d spills, %d windows that built G's state again after its install: the table exercised nothing", sum.SharedHits, sum.SpillCount, sum.Rebuilds)
	}
}

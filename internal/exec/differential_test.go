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
// dual-stage and MinWork, each through the points of mode × scheduler
// workers.
func TestDifferentialExecutors(t *testing.T) {
	for seed := range trial.Seeds(100, 15) {
		wk := 1 + int(seed*5%8)
		for _, p := range []check.Point{
			{Mode: warehouse.ModeStaged},
			{Mode: warehouse.ModeDAG, Workers: wk},
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

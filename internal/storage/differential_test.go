package storage_test

// The join indexes' points of the one differential harness (internal/check,
// DESIGN.md "One oracle"); what trial.Run asserts of a point is the same for
// every table.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	warehouse "repro"
	"repro/internal/check"
	"repro/internal/check/trial"
)

// TestNarrowIndexDifferential: on check.Narrow, L is joined on (k) by J1 and
// on (k, x) by J2, and both probe its index on k, as the compiled rule has a
// step that binds column 0 do — the δP terms of J2 check x on every row it
// yields. Every planner leaves L with that one index, and every point of
// mode × crash, recovery, replica and ingester lands on recomputation. With
// the evaluator's check of the residual keys dropped this fails.
func TestNarrowIndexDifferential(t *testing.T) {
	for _, planner := range warehouse.Planners {
		w := check.BuildCatalog(t, check.Narrow, 1)
		rng := rand.New(rand.NewSource(1))
		for win := 0; win < 2; win++ {
			check.Stage(t, w, rng)
			if _, err := w.RunWindowOpts(warehouse.WindowOptions{Planner: planner}); err != nil {
				t.Fatal(err)
			}
		}
		var cols [][]int
		for _, st := range w.Internal().MustView("L").IndexStats() {
			cols = append(cols, st.Cols)
		}
		if !slices.EqualFunc(cols, [][]int{{0}}, slices.Equal) {
			t.Fatalf("%s: L ends with indexes %v, want the one on k", planner, cols)
		}
	}

	var sum trial.Tally
	for seed := range trial.Seeds(12, 3) {
		for leg, p := range []check.Point{
			{},
			{Planner: "dualstage", Mode: warehouse.ModeStaged},
			{Planner: "prune", Mode: warehouse.ModeDAG, Workers: 3, Readers: 2},
			{Planner: "dualstage", Fault: fmt.Sprintf("crash:step@%d", 1+seed%9)},
			{Fault: "transient:step@2", Mode: warehouse.ModeDAG},
			{Planner: "dualstage", Replicas: 2, Drop: true, Kill: 2},
			{Planner: "prune", Ingest: true, Fault: "crash:step@2"},
		} {
			p.Seed, p.Catalog, p.Windows, p.Skip = seed, check.Narrow, 3, (seed+int64(leg))%2 == 0
			sum.Add(trial.Run(t, p))
		}
	}
	if sum.IndexProbes == 0 {
		t.Fatal("no window probed an index: the table exercised nothing")
	}
}

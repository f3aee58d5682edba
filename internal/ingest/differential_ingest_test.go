package ingest_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	warehouse "repro"
	"repro/internal/check"
	"repro/internal/check/trial"
)

// TestDifferentialIngest: the exactly-once points of the one differential
// harness (internal/check, DESIGN.md "One oracle"). 50 seeded catalogs each
// take a journaled stream through the ingester with a crash or a transient
// fault at an ingest point (accept, journal, cut, stage) or a window point
// (step; recompute, which only a degrading window reaches) of the first
// incarnation; one trial in seven is fault-free outright, every third is read
// while it runs, and every fifth ingests on a leader that ships its log to
// followers, one of them killed mid-replay, and fails over when the leader
// dies. trial.Run restarts a dead incarnation from its log until the stream
// is in, and holds the result to the recomputation of the whole stream —
// nothing dropped, nothing applied twice — and the log to one accept per
// change, each installed. Run with -race in CI.
func TestDifferentialIngest(t *testing.T) {
	if testing.Short() {
		t.Skip("differential harness skipped in -short")
	}
	var restarts atomic.Int64
	t.Cleanup(func() { // after the parallel trials
		if n := restarts.Load(); !t.Failed() && n < 20 {
			t.Errorf("%d restarts over the table's crash points at accept, journal, cut, stage and step: they are not firing", n)
		}
	})
	points := []string{"ingest.accept", "ingest.journal", "ingest.cut", "ingest.stage", "step", "recompute"}
	for seed := range trial.Seeds(50, 0) {
		p := check.Point{
			Seed: 1000 + seed, Ingest: true, Windows: 4 + int(seed%4), Workers: 2,
			Mode:    []warehouse.Mode{warehouse.ModeSequential, warehouse.ModeDAG}[seed/2%2],
			Readers: []int{0, 0, 2}[seed%3],
		}
		if seed%5 == 4 {
			p.Replicas, p.Kill = 1+int(seed%3), int(seed%2)
		}
		if seed%7 != 0 {
			p.Fault = fmt.Sprintf("%s:%s@%d", []string{"crash", "transient", "crash"}[seed/3%3], points[seed%6], 1+seed/6%3)
		}
		t.Run("", func(t *testing.T) {
			t.Parallel()
			restarts.Add(int64(trial.Run(t, p).Restarts))
		})
	}
}

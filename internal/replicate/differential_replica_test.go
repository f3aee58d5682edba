package replicate_test

import (
	"fmt"
	"testing"

	warehouse "repro"
	"repro/internal/check"
	"repro/internal/check/trial"
)

// TestDifferentialReplication: the replication points of the one
// differential harness (internal/check, DESIGN.md "One oracle"). 34 seeded
// catalogs each stream six windows — sequential, DAG or wide-engine DAG, the
// leader unbudgeted, at 1 MiB or starved — to 1–3 followers through real
// HTTP: follower 0 disconnects and replays under a 1-byte budget, the last
// of several fetches every other window, one trial in three kills a follower
// mid-replay, one in six aborts a window on its deadline and one in six fails
// an attempt half way, so that abort records ship too. trial.Run holds every
// follower, at every epoch it replays into, to the bags and installed-delta
// digests the leader committed it with, and all to convergence with zero lag.
// Trials run in parallel, so the race tier exercises concurrent replica sets.
func TestDifferentialReplication(t *testing.T) {
	for seed := range trial.Seeds(34, 8) {
		p := check.Point{
			Seed: 9000 + seed*17, Windows: 6, Workers: 1 + int(seed%4),
			Budget:   []int64{0, 1 << 20, 1}[seed%3],
			Replicas: 1 + int(seed*7%3), Drop: true, Slow: true,
		}
		if seed%3 > 0 {
			p.Mode = warehouse.ModeDAG
			p.Width = []int{1, p.Workers}[seed%3-1]
		}
		if seed%3 == 0 {
			p.Kill = 2 + int(seed%5)
		}
		switch seed % 6 {
		case 1:
			p.Fault = "deadline"
		case 4: // an attempt that fails mid-window ships its steps and an abort record
			p.Fault = "transient:step@3"
		}
		p.Skip = seed%4 == 2 // a follower learns it from the begin record
		t.Run(fmt.Sprintf("trial%02d", seed), func(t *testing.T) {
			t.Parallel()
			trial.Run(t, p)
		})
	}
}

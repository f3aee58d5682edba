package recovery_test

import (
	"fmt"
	"testing"

	warehouse "repro"
	"repro/internal/check"
	"repro/internal/check/trial"
)

// TestCrashRecoveryDifferential: the crash points of the one differential
// harness (internal/check, DESIGN.md "One oracle"). For 100 seeded catalogs
// a journaled window dies at a step drawn from the seed — every scheduling
// mode, sharing on and off, one death in three delivered by panic, engine
// width and scheduler pool drawn per leg, every fourth seed losing the
// unflushed tail of its journal to a power cut — and is recovered on a rebuilt
// warehouse. trial.Run holds the recovered state to recomputation, the serving
// epoch to its pre-window state until then, and the completed journal to one
// record a step with the uninterrupted run's installed-delta digests.
func TestCrashRecoveryDifferential(t *testing.T) {
	for seed := range trial.Seeds(100, 12) {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			t.Parallel() // the journals are files: let their flushes overlap
			crashes(t, seed)
		})
	}
}

func crashes(t *testing.T, seed int64) {
	fault := []string{"panic", "crash", "crash"}[seed%3]
	for leg, p := range []check.Point{
		{},
		{Mode: warehouse.ModeStaged},
		{Mode: warehouse.ModeDAG},
		// Crashes must not leak the window's build cache, and a sharing-off
		// recovery of a sharing-on window must replay to identical digests
		// (sharing elides scans, not results).
		{Share: true},
		{Mode: warehouse.ModeDAG, Share: true},
	} {
		draw := int(seed)*5 + leg
		p.Seed, p.Planner, p.Skip = seed, []string{"dualstage", "minwork"}[seed%2], seed%4 < 2
		p.Width, p.Workers = 1+draw%4, 1+draw/4%4
		p.Fault = fmt.Sprintf("%s:step@%d", fault, 1+draw*7%23)
		if seed%4 == 3 {
			p.Cut = 1 + draw*13%150
		}
		trial.Run(t, p)
	}
}

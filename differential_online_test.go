package warehouse_test

import (
	"fmt"
	"testing"

	warehouse "repro"
	"repro/internal/check"
	"repro/internal/check/trial"
)

// TestOnlineSnapshotIsolationDifferential: the snapshot-isolation points of
// the one differential harness (internal/check, DESIGN.md "One oracle").
// Over 12 seeded catalogs, three readers — pinning epochs and capturing them
// whole, or sending ordered queries through the server's queue — race 120
// windows: streams that commit (every scheduling mode, some planned by the
// sharing-aware search with the cache kept under 1 MiB and a wide engine),
// streams whose last window aborts on a nanosecond deadline and is run again,
// and streams whose last window dies to an injected crash and is completed by
// Recover on a snapshot-restored rebuild. trial.Run holds every read to
// exactly a state the warehouse adopted — never a blend — and aborted or
// crashed windows to leaving the serving epoch alone.
func TestOnlineSnapshotIsolationDifferential(t *testing.T) {
	modes := []warehouse.Mode{warehouse.ModeSequential, warehouse.ModeStaged, warehouse.ModeDAG}
	for seed := range trial.Seeds(12, 3) {
		plain := check.Point{Seed: 88400 + seed, Readers: 3, Mode: modes[seed%3], Workers: 1 + int(seed%4), Windows: 4}
		shared := plain
		shared.Mode, shared.Planner, shared.Share, shared.Width, shared.Windows = modes[(seed+1)%3], "shared", true, 1+int(seed%2), 2
		aborted, crashed := plain, plain
		aborted.Mode, aborted.Windows, aborted.Fault = modes[(seed+2)%3], 2, "deadline"
		crashed.Windows, crashed.Fault = 2, fmt.Sprintf("crash:step@%d", 1+seed*5%11)
		for _, p := range []check.Point{plain, shared, aborted, crashed} {
			trial.Run(t, p)
		}
	}
}

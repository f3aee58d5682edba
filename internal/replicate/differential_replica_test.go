package replicate

// Leader/follower differential harness. ~100 seeded trials (each a fresh
// random leveled warehouse) run windows across sequential, DAG, and
// wide-engine DAG execution, shipping to 1–3 followers through real HTTP,
// with injected disconnects, a slow follower that fetches only every other
// window, deadline-aborted windows mid-stream, and follower crashes
// mid-replay (rebuilt from the sources and caught up from offset zero).
// The invariants, checked at every committed epoch on every replica:
//
//   - bag-equality: each follower's full view bags at epoch e are identical
//     to the leader's bags when it committed e;
//   - digest-equality: the replayed window's per-step installed-delta
//     digests match the leader's step digests exactly;
//   - a crashed replay leaves the follower at its pre-crash epoch with its
//     pre-crash state;
//   - every replica converges to the leader's final state and digest.
//
// Trials run in parallel, so the race tier exercises concurrent replica
// sets; within a trial, polling is synchronous and deterministic.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	warehouse "repro"
	"repro/internal/faults"
)

func TestDifferentialReplication(t *testing.T) {
	trials := 34
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			t.Parallel()
			runReplicaTrial(t, int64(9000+trial*17))
		})
	}
}

// replicaState tracks what the leader looked like at each committed epoch.
type replicaState struct {
	mu      sync.Mutex
	bags    map[uint64]map[string][]string
	digests map[uint64]map[string]uint64
}

func (rs *replicaState) record(epoch uint64, bags map[string][]string, dig map[string]uint64) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.bags[epoch] = bags
	rs.digests[epoch] = dig
}

func (rs *replicaState) at(epoch uint64) (map[string][]string, map[string]uint64, bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	b, ok := rs.bags[epoch]
	return b, rs.digests[epoch], ok
}

func runReplicaTrial(t *testing.T, seed int64) {
	const windows = 6
	rng := rand.New(rand.NewSource(seed))
	ctx := context.Background()

	leader := NewLeader(buildRep(t, seed))
	srv := httptest.NewServer(leader.Handler())
	defer srv.Close()

	ref := &replicaState{bags: map[uint64]map[string][]string{}, digests: map[uint64]map[string]uint64{}}
	ref.record(leader.Warehouse().Epoch(), captureBags(t, leader.Warehouse()), nil)

	// verifyApply is each follower's OnApply hook: at the instant a window
	// replays, the follower's epoch and full bags must equal what the leader
	// had when it committed that epoch, and the step digests must match.
	newVerified := func(label string, inj *faults.Injector) *Follower {
		f := NewFollower(buildRep(t, seed), FollowerConfig{
			Leader: srv.URL,
			Client: srv.Client(),
			Faults: inj,
			Sleep:  func(time.Duration) {},
		})
		f.cfg.OnApply = func(rep warehouse.WindowReport) {
			epoch := f.Warehouse().Epoch()
			wantBags, wantDig, ok := ref.at(epoch)
			if !ok {
				t.Errorf("%s: replayed into epoch %d the leader never committed", label, epoch)
				return
			}
			if !bagsEqual(captureBags(t, f.Warehouse()), wantBags) {
				t.Errorf("%s: bags at epoch %d differ from leader's", label, epoch)
			}
			if !digestsEqual(stepDigests(rep), wantDig) {
				t.Errorf("%s: step digests at epoch %d differ from leader's", label, epoch)
			}
		}
		return f
	}

	// 1–3 followers. Follower 0 suffers injected disconnects (transient
	// fetch faults, healed by CatchUp's retry loop). The last follower, when
	// there is more than one, is "slow": it fetches only every other window.
	nf := 1 + rng.Intn(3)
	followers := make([]*Follower, nf)
	for i := range followers {
		var inj *faults.Injector
		if i == 0 {
			inj = faults.New(seed + int64(i))
			inj.FailTimes("fetch", 1+rng.Intn(3))
		}
		followers[i] = newVerified(fmt.Sprintf("follower%d", i), inj)
	}
	slow := -1
	if nf > 1 {
		slow = nf - 1
	}
	// Follower 0 replays every window under a starved memory budget: its
	// replays spill while the leader's windows may not have, and the OnApply
	// digest checks prove bounded replay reproduces the leader's installed
	// deltas bit for bit.
	followers[0].Warehouse().SetMemoryBudget(1)

	// One crash trial in three: a follower dies mid-replay and is rebuilt.
	crashWin := -1
	crashIdx := 0
	if rng.Intn(3) == 0 {
		crashWin = 2 + rng.Intn(windows-2)
		crashIdx = rng.Intn(nf)
	}

	// The leader's own budget cycles unbounded / 1 MiB / starved across the
	// stream: shipped journals must replay identically whatever memory regime
	// produced them.
	leaderBudgets := []int64{0, 1 << 20, 1}

	for win := 0; win < windows; win++ {
		stageRep(t, leader.Warehouse(), rng)
		leader.Warehouse().SetMemoryBudget(leaderBudgets[win%len(leaderBudgets)])

		// Execution shape: sequential, DAG, or DAG with the term engine as
		// wide as the scheduler's pool. Occasionally a window
		// aborts on a nanosecond deadline before the real one commits —
		// follower replication must ship the abort record harmlessly.
		if rng.Intn(6) == 0 {
			_, err := leader.RunWindow(warehouse.WindowOptions{Mode: warehouse.ModeDAG, Timeout: time.Nanosecond})
			if !errors.Is(err, warehouse.ErrWindowAborted) {
				t.Fatalf("win %d: deadline abort returned %v", win, err)
			}
		}
		opts := warehouse.WindowOptions{Workers: 1 + rng.Intn(4)}
		switch win % 3 {
		case 0:
			opts.Mode = warehouse.ModeSequential
		case 1:
			opts.Mode = warehouse.ModeDAG
		default: // both levels wide
			opts.Mode = warehouse.ModeDAG
			leader.Warehouse().SetParallelism(opts.Workers, true)
		}
		rep, err := leader.RunWindow(opts)
		leader.Warehouse().SetParallelism(0, false)
		if err != nil {
			t.Fatalf("win %d: %v", win, err)
		}
		epoch := leader.Warehouse().Epoch()
		ref.record(epoch, captureBags(t, leader.Warehouse()), stepDigests(rep))

		for i, f := range followers {
			if i == slow && win%2 == 0 && win != windows-1 {
				continue // the slow follower skips this round entirely
			}
			if win == crashWin && i == crashIdx {
				// Arm a crash-class fault at the next replay: the follower
				// must die with its pre-crash state intact, then be rebuilt
				// from the sources and catch up from offset zero.
				preEpoch := f.Warehouse().Epoch()
				preBags := captureBags(t, f.Warehouse())
				inj := faults.New(seed + 99)
				inj.CrashAt("apply", 1)
				f.cfg.Faults = inj
				if err := f.CatchUp(ctx); !errors.Is(err, ErrFollowerDead) {
					t.Fatalf("win %d: crash-armed catch-up returned %v", win, err)
				}
				if got := f.Warehouse().Epoch(); got != preEpoch {
					t.Fatalf("win %d: crashed replay flipped epoch %d -> %d", win, preEpoch, got)
				}
				if !bagsEqual(captureBags(t, f.Warehouse()), preBags) {
					t.Fatalf("win %d: crashed replay mutated follower state", win)
				}
				if _, err := f.Poll(ctx); !errors.Is(err, ErrFollowerDead) {
					t.Fatalf("win %d: dead follower accepted a poll: %v", win, err)
				}
				if f.Stats().Dead == "" {
					t.Fatalf("win %d: dead follower's stats hide the cause", win)
				}
				followers[i] = newVerified(fmt.Sprintf("follower%d-rebuilt", i), nil)
				if i == 0 {
					followers[i].Warehouse().SetMemoryBudget(1)
				}
				f = followers[i]
			}
			if err := f.CatchUp(ctx); err != nil {
				t.Fatalf("win %d follower %d: %v", win, i, err)
			}
			if got := f.Warehouse().Epoch(); got != epoch {
				t.Fatalf("win %d follower %d: epoch %d, leader %d", win, i, got, epoch)
			}
			// At the same epoch, a random ORDER BY/LIMIT/OFFSET query must
			// come back row-identical from leader and follower.
			sql := randPresentationQuery(t, leader.Warehouse(), rng)
			lrows := queryRows(t, leader.Warehouse(), sql)
			frows := queryRows(t, f.Warehouse(), sql)
			if len(lrows) != len(frows) {
				t.Fatalf("win %d follower %d: %s: %d rows vs leader's %d", win, i, sql, len(frows), len(lrows))
			}
			for r := range lrows {
				if lrows[r] != frows[r] {
					t.Fatalf("win %d follower %d: %s: row %d = %s, leader %s", win, i, sql, r, frows[r], lrows[r])
				}
			}
		}
	}

	// Convergence: every follower ends bag- and digest-identical to the
	// leader, having replayed every committed window it fetched.
	finalBags := captureBags(t, leader.Warehouse())
	finalDigest := leader.Warehouse().StateDigest()
	for i, f := range followers {
		if err := f.CatchUp(ctx); err != nil {
			t.Fatalf("final catch-up follower %d: %v", i, err)
		}
		if !bagsEqual(captureBags(t, f.Warehouse()), finalBags) {
			t.Errorf("follower %d: final bags diverge from leader", i)
		}
		if got := f.Warehouse().StateDigest(); got != finalDigest {
			t.Errorf("follower %d: final state digest %016x, leader %016x", i, got, finalDigest)
		}
		if lag := f.Lag(); lag.Epochs != 0 || lag.Bytes != 0 {
			t.Errorf("follower %d: residual lag %+v", i, lag)
		}
		if err := f.Warehouse().Verify(); err != nil {
			t.Errorf("follower %d: %v", i, err)
		}
	}
	if inj0 := followers[0]; inj0.Stats().ReconnectCount == 0 && crashWin == -1 && inj0.cfg.Faults != nil {
		t.Error("follower 0's injected disconnects never registered")
	}
}

package replicate

// Failover: the leader dies mid-stream with its followers at different
// high-water marks. The highest-HWM follower wins the election and is
// promoted; no window any follower applied is lost; the stale follower
// redirects to the new leader, catches up to bag-equality, and the promoted
// leader keeps running (and shipping) new windows with continuous sequence
// numbering.

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	warehouse "repro"
	"repro/internal/check"
)

func TestFailover(t *testing.T) {
	const seed = 7600
	leader := NewLeader(check.Build(t, seed))
	srv := httptest.NewServer(leader.Handler())
	rng := rand.New(rand.NewSource(seed * 3))
	ctx := context.Background()

	newF := func() *Follower {
		return NewFollower(check.Build(t, seed), FollowerConfig{
			Leader: srv.URL,
			Client: srv.Client(),
			Sleep:  func(time.Duration) {},
		})
	}
	ahead, stale := newF(), newF()

	// Five windows; `ahead` replicates all of them, `stale` only the first
	// two — a mid-stream death leaves followers at different HWMs.
	for i := 0; i < 5; i++ {
		check.Stage(t, leader.Warehouse(), rng)
		if _, err := leader.Warehouse().RunWindowOpts(warehouse.WindowOptions{Mode: warehouse.ModeDAG, Journal: leader.Journal()}); err != nil {
			t.Fatal(err)
		}
		if err := ahead.CatchUp(ctx); err != nil {
			t.Fatal(err)
		}
		if i < 2 {
			if err := stale.CatchUp(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	leaderState := check.Capture(leader.Warehouse())
	leaderEpoch := leader.Warehouse().Epoch()

	// The leader dies mid-stream.
	srv.Close()
	if _, err := stale.Poll(ctx); err == nil {
		t.Fatal("poll against a dead leader succeeded")
	}

	// Election: the follower with the highest HWM wins.
	winner, err := Elect(stale, ahead)
	if err != nil {
		t.Fatal(err)
	}
	if winner != ahead {
		t.Fatalf("elected the stale follower (HWMs: stale %d, ahead %d)", stale.HWM(), ahead.HWM())
	}

	// Promotion: no committed window the dead leader shipped is lost.
	promoted, err := winner.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if got := promoted.Warehouse().Epoch(); got != leaderEpoch {
		t.Fatalf("promoted leader at epoch %d, dead leader committed through %d", got, leaderEpoch)
	}
	if check.Diff(leaderState, check.Capture(promoted.Warehouse())) != nil {
		t.Fatal("promoted leader lost committed state")
	}
	if n := promoted.Stats().CommittedWindows; n != 5 {
		t.Fatalf("promoted log holds %d committed windows", n)
	}

	// The stale follower redirects and catches up to bag-equality.
	srv2 := httptest.NewServer(promoted.Handler())
	defer srv2.Close()
	stale.Redirect(srv2.URL)
	stale.cfg.Client = srv2.Client()
	if err := stale.CatchUp(ctx); err != nil {
		t.Fatalf("stale follower catching up to promoted leader: %v", err)
	}
	if check.Diff(leaderState, check.Capture(stale.Warehouse())) != nil {
		t.Fatal("stale follower did not converge on the promoted leader")
	}
	if got, want := stale.Warehouse().StateDigest(), promoted.Warehouse().StateDigest(); got != want {
		t.Fatalf("state digests after catch-up: %016x vs %016x", got, want)
	}

	// The promoted leader keeps the replica set moving: new windows ship,
	// sequence numbering continues, the stale follower stays converged.
	for i := 0; i < 2; i++ {
		check.Stage(t, promoted.Warehouse(), rng)
		if _, err := promoted.Warehouse().RunWindowOpts(warehouse.WindowOptions{Mode: warehouse.ModeDAG, Journal: promoted.Journal()}); err != nil {
			t.Fatalf("post-failover window %d: %v", i, err)
		}
		if err := stale.CatchUp(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if promoted.Journal().Committed() != 7 {
		t.Fatalf("promoted journal committed %d windows, want 7 (5 inherited + 2 new)", promoted.Journal().Committed())
	}
	if check.Diff(check.Capture(promoted.Warehouse()), check.Capture(stale.Warehouse())) != nil {
		t.Fatal("replica set diverged after failover")
	}
	if got, want := stale.Warehouse().Epoch(), promoted.Warehouse().Epoch(); got != want {
		t.Fatalf("epochs after failover: follower %d, leader %d", got, want)
	}
}

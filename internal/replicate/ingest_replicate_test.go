package replicate

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	warehouse "repro"
	"repro/internal/check"
	"repro/internal/ingest"
)

// TestIngestingLeaderReplicates drives a leader's windows from the
// continuous-ingestion path — micro-batches committed through the shipping
// journal — and checks a follower replays them to the identical state. The
// caught-up follower's lag must be zero in epochs, bytes, and wall-clock,
// while AcceptWallMS stays positive: the tip's accept-to-commit span is the
// end-to-end freshness of the replicated state.
func TestIngestingLeaderReplicates(t *testing.T) {
	const seed = 314
	lw := check.Build(t, seed)
	leader := NewLeader(lw)
	srv := httptest.NewServer(leader.Handler())
	defer srv.Close()

	ing, err := ingest.New(ingest.Config{
		Warehouse: lw,
		Journal:   leader.Journal(),
		SLO:       50 * time.Millisecond,
		Tick:      time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- ing.Run(context.Background()) }()

	var bases []string
	for _, name := range lw.Views() {
		if name[0] == 'B' {
			bases = append(bases, name)
		}
	}
	rng := rand.New(rand.NewSource(seed + 1))
	for i := 0; i < 24; i++ {
		name := bases[rng.Intn(len(bases))]
		d, err := lw.NewDelta(name)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 1+rng.Intn(4); j++ {
			d.Add(warehouse.Tuple{warehouse.Int(rng.Int63n(5)), warehouse.Int(rng.Int63n(5))}, 1)
		}
		if err := ing.Submit(name, d); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		time.Sleep(200 * time.Microsecond)
	}
	if err := ing.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := ing.Stats(); st.Windows == 0 {
		t.Fatalf("ingester committed no windows: %+v", st)
	}

	fw := check.Build(t, seed)
	f := NewFollower(fw, FollowerConfig{Leader: srv.URL})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := f.CatchUp(ctx); err != nil {
		t.Fatal(err)
	}
	if got, want := fw.StateDigest(), lw.StateDigest(); got != want {
		t.Fatalf("follower digest %x, leader %x", got, want)
	}
	if check.Diff(check.Capture(fw), check.Capture(lw)) != nil {
		t.Fatal("follower bags diverge from the ingesting leader")
	}

	lag := f.Lag()
	if lag.Epochs != 0 || lag.Bytes != 0 || lag.WallMS != 0 {
		t.Fatalf("caught-up follower reports lag: %+v", lag)
	}
	if lag.AcceptWallMS <= 0 {
		t.Fatalf("ingested tip carries no end-to-end freshness: %+v", lag)
	}
	fs := f.Stats()
	if fs.LeaderCommitNS == 0 || fs.LeaderAcceptNS == 0 {
		t.Fatalf("stable-tip timestamps missing from follower stats: %+v", fs)
	}
	ls := leader.Stats()
	if ls.LastCommitNS != fs.LeaderCommitNS || ls.LastAcceptNS != fs.LeaderAcceptNS {
		t.Fatalf("leader advertises tip (%d, %d), follower heard (%d, %d)",
			ls.LastCommitNS, ls.LastAcceptNS, fs.LeaderCommitNS, fs.LeaderAcceptNS)
	}
}

// TestLagWallClock pins the wall-clock staleness arithmetic: a follower that
// has applied window 1 while the leader's stable tip is window 2 must report
// a WallMS of at least the gap between the two commits, and a full catch-up
// must zero it again. Tiny fetch chunks keep the follower partially applied
// long enough to observe the gap deterministically.
func TestLagWallClock(t *testing.T) {
	const seed = 271
	lw := check.Build(t, seed)
	leader := NewLeader(lw)
	rng := rand.New(rand.NewSource(seed + 1))

	check.Stage(t, lw, rng)
	if _, err := leader.Warehouse().RunWindowOpts(warehouse.WindowOptions{Journal: leader.Journal()}); err != nil {
		t.Fatal(err)
	}
	const gap = 10 * time.Millisecond
	time.Sleep(gap)
	check.Stage(t, lw, rng)
	if _, err := leader.Warehouse().RunWindowOpts(warehouse.WindowOptions{Journal: leader.Journal()}); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(leader.Handler())
	defer srv.Close()
	fw := check.Build(t, seed)
	f := NewFollower(fw, FollowerConfig{Leader: srv.URL, ChunkBytes: 64})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Poll in 64-byte chunks until exactly window 1 is applied: the header
	// already advertises window 2's commit time, so the wall-clock lag must
	// cover the inter-window gap.
	for f.Stats().ReplayedWindows == 0 {
		if _, err := f.Poll(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if lag := f.Lag(); lag.WallMS < float64(gap.Milliseconds()) {
		t.Fatalf("partially applied follower reports %.2fms wall lag, want >= %dms", lag.WallMS, gap.Milliseconds())
	}

	if err := f.CatchUp(ctx); err != nil {
		t.Fatal(err)
	}
	if lag := f.Lag(); lag.Bytes != 0 || lag.WallMS != 0 {
		t.Fatalf("caught-up follower reports lag: %+v", lag)
	}
}

package replicate

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	warehouse "repro"
	"repro/internal/check"
	"repro/internal/journal"
)

// newPair builds a leader and one follower over identical seed warehouses,
// with the leader served by httptest.
func newPair(t *testing.T, seed int64) (*Leader, *Follower, *httptest.Server) {
	t.Helper()
	leader := NewLeader(check.Build(t, seed))
	srv := httptest.NewServer(leader.Handler())
	t.Cleanup(srv.Close)
	f := NewFollower(check.Build(t, seed), FollowerConfig{
		Leader: srv.URL,
		Client: srv.Client(),
		Sleep:  func(time.Duration) {},
	})
	return leader, f, srv
}

// TestShipAndReplay: windows run on the leader arrive on the follower in
// order, every view is bag-identical at every committed epoch, and the
// installed-delta digests match step for step.
func TestShipAndReplay(t *testing.T) {
	const seed = 7100
	leader, f, _ := newPair(t, seed)
	rng := rand.New(rand.NewSource(seed * 3))
	ctx := context.Background()

	// What each side held after each window, with what the window installed.
	var replayed []check.State
	f.cfg.OnApply = func(rep warehouse.WindowReport) {
		if !rep.Replicated {
			t.Errorf("window %d: follower report not marked Replicated", len(replayed))
		}
		replayed = append(replayed, check.Capture(f.Warehouse(), rep.Report))
	}

	modes := []warehouse.Mode{warehouse.ModeSequential, warehouse.ModeStaged, warehouse.ModeDAG}
	for i := 0; i < 6; i++ {
		check.Stage(t, leader.Warehouse(), rng)
		rep, err := leader.RunWindow(warehouse.WindowOptions{Mode: modes[i%len(modes)]})
		if err != nil {
			t.Fatalf("window %d: %v", i, err)
		}
		committed := check.Capture(leader.Warehouse(), rep.Report)
		if err := f.CatchUp(ctx); err != nil {
			t.Fatalf("window %d catch-up: %v", i, err)
		}
		if len(replayed) != i+1 || replayed[i].Epoch != committed.Epoch {
			t.Fatalf("window %d: follower replayed %d windows, to epoch %d; the leader is at %d", i, len(replayed), f.Warehouse().Epoch(), committed.Epoch)
		}
		if err := check.Diff(committed, replayed[i]); err != nil {
			t.Fatalf("window %d: follower diverged from leader: %v", i, err)
		}
	}

	st := f.Stats()
	if st.ReplayedWindows != 6 || st.LagEpochs != 0 || st.LagBytes != 0 {
		t.Errorf("follower stats: %+v", st)
	}
	if st.HWM != leader.Log().StableLen() {
		t.Errorf("HWM %d != leader stable %d", st.HWM, leader.Log().StableLen())
	}
	ls := leader.Stats()
	if ls.CommittedWindows != 6 || ls.ShippedBytes < st.HWM {
		t.Errorf("leader stats: %+v", ls)
	}
	image, _, _ := f.Log().Chunk(0, 0)
	if lg, err := journal.ReadLog(bytes.NewReader(image)); err != nil || lg.CommittedCount() != 6 {
		t.Errorf("follower log holds %d committed windows: %v", lg.CommittedCount(), err)
	}
	if tally := f.Warehouse().Tally(); tally.Committed != 6 || tally.Replicated != 6 {
		t.Errorf("follower tally: %+v", tally)
	}
}

// TestAbortedWindowShipsHarmlessly: a deadline-aborted window on the leader
// ships an abort record; the follower consumes it without flipping its epoch.
func TestAbortedWindowShipsHarmlessly(t *testing.T) {
	const seed = 7200
	leader, f, _ := newPair(t, seed)
	rng := rand.New(rand.NewSource(seed * 3))
	ctx := context.Background()

	check.Stage(t, leader.Warehouse(), rng)
	if _, err := leader.RunWindow(warehouse.WindowOptions{Mode: warehouse.ModeDAG, Timeout: time.Nanosecond}); !errors.Is(err, warehouse.ErrWindowAborted) {
		t.Fatalf("want abort, got %v", err)
	}
	if _, err := leader.RunWindow(warehouse.WindowOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := f.CatchUp(ctx); err != nil {
		t.Fatal(err)
	}
	if got, want := f.Warehouse().Epoch(), leader.Warehouse().Epoch(); got != want {
		t.Fatalf("follower epoch %d, leader %d", got, want)
	}
	if st := f.Stats(); st.ReplayedWindows != 1 {
		t.Fatalf("replayed %d windows across one abort + one commit", st.ReplayedWindows)
	}
	if check.Diff(check.Capture(leader.Warehouse()), check.Capture(f.Warehouse())) != nil {
		t.Fatal("follower diverged")
	}
}

// TestChunkedFetch: a tiny chunk size forces many fetches per window,
// splitting frames across chunks; the follower reassembles them correctly.
func TestChunkedFetch(t *testing.T) {
	const seed = 7300
	leader, f, _ := newPair(t, seed)
	f.cfg.ChunkBytes = 7 // absurdly small: every frame spans several chunks
	rng := rand.New(rand.NewSource(seed * 3))

	for i := 0; i < 3; i++ {
		check.Stage(t, leader.Warehouse(), rng)
		if _, err := leader.RunWindow(warehouse.WindowOptions{Mode: warehouse.ModeDAG}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.CatchUp(context.Background()); err != nil {
		t.Fatal(err)
	}
	if check.Diff(check.Capture(leader.Warehouse()), check.Capture(f.Warehouse())) != nil {
		t.Fatal("follower diverged under tiny chunks")
	}
	if st := f.Stats(); st.ReplayedWindows != 3 {
		t.Fatalf("replayed %d windows", st.ReplayedWindows)
	}
}

// TestLeaderServesTheAskedChunkUpToTheCap: a fetch gets the bytes it asks
// for, up to maxChunkBytes, and DefaultChunkBytes when it names no max.
func TestLeaderServesTheAskedChunkUpToTheCap(t *testing.T) {
	leader := NewLeader(warehouse.New())
	jw := journal.NewWriter(leader.Log())
	if err := jw.Begin(journal.BeginRecord{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if err := jw.Step(journal.StepRecord{Key: strings.Repeat("x", maxChunkBytes+1<<20)}); err != nil {
		t.Fatal(err)
	}
	if err := jw.Commit(journal.CommitRecord{}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(leader.Handler())
	defer srv.Close()
	for _, c := range []struct {
		max  string
		want int
	}{{"", DefaultChunkBytes}, {"524288", 512 << 10}, {"2097152", 2 << 20}, {"5242880", maxChunkBytes}} {
		url := srv.URL + "/replicate/log?from=0"
		if c.max != "" {
			url += "&max=" + c.max
		}
		resp, err := srv.Client().Get(url)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s, %v", url, resp.Status, err)
		}
		if len(body) != c.want {
			t.Errorf("asked max=%q, served %d bytes; want %d", c.max, len(body), c.want)
		}
	}
}

// TestRunReturnsWhenCancelledMidPause: a caught-up follower pausing through a
// long Interval returns from Run as soon as its context is cancelled.
func TestRunReturnsWhenCancelledMidPause(t *testing.T) {
	const seed = 7500
	srv := httptest.NewServer(NewLeader(check.Build(t, seed)).Handler())
	defer srv.Close()
	f := NewFollower(check.Build(t, seed), FollowerConfig{Leader: srv.URL, Client: srv.Client(), Interval: 3 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- f.Run(ctx) }()
	for f.Stats().LastContact.IsZero() {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // into the pause after the caught-up poll
	cancel()
	cancelled := time.Now()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want the context's error", err)
		}
		if took := time.Since(cancelled); took > 250*time.Millisecond {
			t.Fatalf("Run returned %v after the cancel", took)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run sat out its pause after the cancel")
	}
}

// TestUnstableTailNeverShips: the writer marks the log shippable after every
// record that leaves no window open, and nowhere else, so mid-window bytes —
// an accept appended among the window's steps included — stay above the
// stable watermark until the window's closing record, and only closed windows
// and the accepts between them are fetchable. After each record the mark sits
// where a fresh Assembler, fed the log's records, last had no window open.
func TestUnstableTailNeverShips(t *testing.T) {
	l := NewLog()
	jw := journal.NewWriter(l)
	accept := func() error {
		_, _, err := jw.Accept(journal.AcceptRecord{UnixNano: 5, Batch: []journal.ViewBatch{{View: "A", Rows: []journal.RowChange{{Key: "k", Count: 1}}}}})
		return err
	}
	commit := journal.CommitRecord{UnixNano: 9, ElapsedNS: 1}
	steps := []struct {
		name string
		do   func() error
	}{
		{"accept between windows", accept},
		{"begin", func() error { return jw.Begin(journal.BeginRecord{Seq: 1, Accepts: journal.Range{Lo: 1, Hi: 1}}) }},
		{"step", func() error { return jw.Step(journal.StepRecord{Index: 0, Key: "x"}) }},
		{"accept inside the window", accept},
		{"commit", func() error { return jw.Commit(commit) }},
		{"accept between windows", accept},
		{"operator's begin", func() error { return jw.Begin(journal.BeginRecord{Seq: 2, Own: true}) }},
		{"accept inside the window", accept},
		{"abort", func() error { return jw.Abort(journal.AbortRecord{Reason: "deadline"}) }},
	}
	for _, s := range steps {
		before := l.StableLen()
		if err := s.do(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		image, _, _ := l.Chunk(0, 0)
		if len(image) != int(l.StableLen()) {
			t.Fatalf("%s: a chunk of everything holds %d bytes, the mark is at %d", s.name, len(image), l.StableLen())
		}
		if want := closedPrefix(t, l); l.StableLen() != want {
			t.Fatalf("%s: the mark is at %d, the records leave no window open at %d", s.name, l.StableLen(), want)
		}
		if s.name == "accept inside the window" && l.StableLen() != before {
			t.Fatalf("an accept inside an open window moved the mark from %d to %d", before, l.StableLen())
		}
	}
	if l.StableLen() != l.Len() {
		t.Fatalf("the closed log did not stabilize: stable %d, len %d", l.StableLen(), l.Len())
	}
	if commitNS, acceptNS := l.StableTip(); commitNS != commit.UnixNano || acceptNS != 5 {
		t.Fatalf("stable tip %d/%d, the commit record holds %d/5", commitNS, acceptNS, commit.UnixNano)
	}
}

// TestResumedLogKeepsItsTip: a leader resumed over a replicated log — a
// promoted follower's — ships an accept it writes between windows with the
// log's last commit as its stable tip, until it commits a window of its own.
func TestResumedLogKeepsItsTip(t *testing.T) {
	l := NewLog()
	jw := journal.NewWriter(l)
	batch := []journal.ViewBatch{{View: "A", Rows: []journal.RowChange{{Key: "k", Count: 1}}}}
	if err := jw.Begin(journal.BeginRecord{Seq: 1, Own: true, Batch: batch}); err != nil {
		t.Fatal(err)
	}
	if err := jw.Commit(journal.CommitRecord{UnixNano: 9}); err != nil {
		t.Fatal(err)
	}
	leader, err := NewLeaderFrom(warehouse.New(), l)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := leader.Journal().Accept(journal.AcceptRecord{UnixNano: 11, Batch: batch}); err != nil {
		t.Fatal(err)
	}
	if commitNS, _ := l.StableTip(); l.StableLen() != l.Len() || commitNS != 9 {
		t.Fatalf("after the resumed leader's accept: stable %d of %d bytes, tip %d; want all of them and 9", l.StableLen(), l.Len(), commitNS)
	}
}

// closedPrefix reads every byte l holds, the unstable tail included, with a
// fresh Assembler and returns where the last record that leaves it with no
// window open ends.
func closedPrefix(t *testing.T, l *Log) int64 {
	t.Helper()
	l.mu.Lock()
	all := slices.Clone(l.buf)
	l.mu.Unlock()
	var asm journal.Assembler
	closed := 0
	if _, err := journal.Scan(all, func(typ byte, p []byte, end int) error {
		if _, err := asm.Feed(typ, p); err != nil {
			return err
		}
		if !asm.InFlight() {
			closed = end
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return int64(closed)
}

// TestHTTPEndpoints: /lag and both /replicate/stats endpoints serve JSON
// that reflects replication progress.
func TestHTTPEndpoints(t *testing.T) {
	const seed = 7400
	leader, f, srv := newPair(t, seed)
	rng := rand.New(rand.NewSource(seed * 3))
	check.Stage(t, leader.Warehouse(), rng)
	if _, err := leader.RunWindow(warehouse.WindowOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := f.CatchUp(context.Background()); err != nil {
		t.Fatal(err)
	}

	fsrv := httptest.NewServer(f.Handler())
	defer fsrv.Close()

	var lag Lag
	getJSON(t, fsrv.Client(), fsrv.URL+"/lag", &lag)
	if lag.Epochs != 0 || lag.Bytes != 0 || lag.Epoch != 2 || lag.Leader != 2 {
		t.Errorf("lag = %+v", lag)
	}
	var fs FollowerStats
	getJSON(t, fsrv.Client(), fsrv.URL+"/replicate/stats", &fs)
	if fs.ReplayedWindows != 1 || fs.ShippedRecords == 0 {
		t.Errorf("follower stats = %+v", fs)
	}
	var ls LeaderStats
	getJSON(t, srv.Client(), srv.URL+"/replicate/stats", &ls)
	if ls.CommittedWindows != 1 || ls.ChunksServed == 0 {
		t.Errorf("leader stats = %+v", ls)
	}
}

func getJSON(t *testing.T, c *http.Client, url string, into any) {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", url, resp.Status, buf.String())
	}
	if err := json.Unmarshal(buf.Bytes(), into); err != nil {
		t.Fatalf("GET %s: %v in %q", url, err, buf.String())
	}
}

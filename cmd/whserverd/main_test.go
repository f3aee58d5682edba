package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/ingest"
	"repro/internal/journal"
)

// TestServerLifecycle boots the daemon on an ephemeral port with a fast
// window driver, watches queries stay answerable while epochs advance, and
// then drains it the way a signal would (context cancellation).
func TestServerLifecycle(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, config{
			addr: "127.0.0.1:0", queue: 64, workers: 2,
			queryTimeout: 2 * time.Second, windowEvery: 5 * time.Millisecond,
			mode: "dag", planner: "minwork",
			stores: 4, sales: 200, seed: 7,
			drainTimeout: 5 * time.Second, ready: ready,
		})
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("daemon exited during startup: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}

	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s = %d", path, resp.StatusCode)
		}
	}

	query := func() (uint64, int) {
		resp, err := http.Get(base + "/query?q=SELECT+region,+SUM(amount)+AS+total+FROM+SALES_BY_STORE+GROUP+BY+region")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			return 0, resp.StatusCode
		}
		var qr struct {
			Epoch uint64  `json:"epoch"`
			Rows  [][]any `json:"rows"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatal(err)
		}
		if len(qr.Rows) != 4 {
			t.Fatalf("query returned %d regions", len(qr.Rows))
		}
		return qr.Epoch, 200
	}

	// Queries keep answering while the window driver commits epochs; wait
	// until at least two windows have flipped the epoch.
	deadline := time.Now().Add(10 * time.Second)
	var last uint64
	for time.Now().Before(deadline) {
		e, code := query()
		if code != 200 {
			t.Fatalf("query = %d", code)
		}
		if e < last {
			t.Fatalf("epoch went backwards: %d after %d", e, last)
		}
		last = e
		if e >= 3 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if last < 3 {
		t.Fatalf("epoch stuck at %d; window driver not committing", last)
	}

	// /stats carries the engine counters (cache + cross-view sharing).
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, key := range []string{"CacheHits", "CacheTuplesSaved", "SharedHits", "SharedTuplesSaved", "SharedBytesPeak"} {
		if _, ok := stats[key]; !ok {
			t.Errorf("/stats missing %q: %v", key, stats)
		}
	}

	// Drain as a signal would.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not drain")
	}
}

// TestReplicaSmoke boots a leader with a fast window driver and two
// followers pointed at it, waits for both followers to drain their lag to
// zero at an advanced epoch, checks follower queries answer, followers
// refuse writes and count the windows they applied, then drains all three
// daemons.
func TestReplicaSmoke(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	boot := func(follow string, windowEvery time.Duration) (string, chan error) {
		ready := make(chan string, 1)
		done := make(chan error, 1)
		go func() {
			done <- run(ctx, config{
				addr: "127.0.0.1:0", queue: 64, workers: 2,
				queryTimeout: 2 * time.Second, windowEvery: windowEvery,
				mode: "dag", planner: "minwork",
				stores: 4, sales: 200, seed: 7,
				// Generous drain: under -race the whole module's test
				// binaries share this machine, and three daemons drain
				// at once.
				drainTimeout: 30 * time.Second, ready: ready,
				follow: follow, fetchInterval: 5 * time.Millisecond,
			})
		}()
		select {
		case addr := <-ready:
			return "http://" + addr, done
		case err := <-done:
			t.Fatalf("daemon (follow=%q) exited during startup: %v", follow, err)
		case <-time.After(30 * time.Second):
			t.Fatalf("daemon (follow=%q) never became ready", follow)
		}
		panic("unreachable")
	}

	leaderBase, leaderDone := boot("", 5*time.Millisecond)
	f1Base, f1Done := boot(leaderBase, 0)
	f2Base, f2Done := boot(leaderBase, 0)

	getJSON := func(url string, into any) int {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == 200 {
			if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
				t.Fatalf("%s: %v", url, err)
			}
		}
		return resp.StatusCode
	}

	// Both followers must catch up to an advanced epoch with zero lag.
	// Epoch 4 = three replayed windows, which the stats check below relies
	// on; waiting for epoch 3 only guarantees two.
	type lag struct {
		Epoch     uint64 `json:"epoch"`
		Leader    uint64 `json:"leader_epoch"`
		LagEpochs uint64 `json:"lag_epochs"`
		LagBytes  int64  `json:"lag_bytes"`
	}
	deadline := time.Now().Add(60 * time.Second)
	for _, base := range []string{f1Base, f2Base} {
		for {
			var l lag
			if code := getJSON(base+"/lag", &l); code != 200 {
				t.Fatalf("%s/lag = %d", base, code)
			}
			if l.Epoch >= 4 && l.LagEpochs == 0 && l.LagBytes == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never caught up: %+v", base, l)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Follower answers queries at its replicated epoch and refuses writes.
	var qr struct {
		Epoch uint64  `json:"epoch"`
		Rows  [][]any `json:"rows"`
	}
	if code := getJSON(f1Base+"/query?q=SELECT+region,+SUM(amount)+AS+total+FROM+SALES_BY_STORE+GROUP+BY+region", &qr); code != 200 {
		t.Fatalf("follower query = %d", code)
	}
	if len(qr.Rows) != 4 || qr.Epoch < 3 {
		t.Fatalf("follower query: %d rows at epoch %d", len(qr.Rows), qr.Epoch)
	}
	resp, err := http.Post(f1Base+"/window", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("follower POST /window = %d, want 403", resp.StatusCode)
	}

	// Replication stats are live on both sides.
	var fs struct {
		Replayed int64  `json:"replayed_windows"`
		Shipped  int64  `json:"shipped_records"`
		Dead     string `json:"dead,omitempty"`
	}
	if code := getJSON(f2Base+"/replicate/stats", &fs); code != 200 {
		t.Fatalf("follower stats = %d", code)
	}
	if fs.Replayed < 3 || fs.Shipped == 0 || fs.Dead != "" {
		t.Fatalf("follower stats: %+v", fs)
	}
	// The follower's /stats counts the windows it applied.
	var st struct{ WindowsCommitted, WindowsAborted int64 }
	if code := getJSON(f2Base+"/stats", &st); code != 200 {
		t.Fatalf("follower /stats = %d", code)
	}
	if st.WindowsCommitted < fs.Replayed || st.WindowsAborted != 0 {
		t.Fatalf("follower /stats counts %+v, after %d windows applied", st, fs.Replayed)
	}
	var ls struct {
		Chunks int64 `json:"chunks_served"`
	}
	if code := getJSON(leaderBase+"/replicate/stats", &ls); code != 200 {
		t.Fatalf("leader stats = %d", code)
	}
	if ls.Chunks == 0 {
		t.Fatalf("leader served no chunks: %+v", ls)
	}

	cancel()
	for _, done := range []chan error{f1Done, f2Done, leaderDone} {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("drain returned %v", err)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("daemon did not drain")
		}
	}
}

// TestIngestDrainUnderLoad boots the daemon in continuous-ingestion mode,
// waits for micro-batch windows to commit while queries keep answering, then
// drains it mid-stream — the producer is still pushing when the signal
// lands. The drain must quiesce the ingester first: the leader's shipped log
// ends with no window in flight, holds one accept per accepted change set,
// and every accept is installed by a committed window (nothing stranded).
// /stats and the drain line count the ingester's windows.
func TestIngestDrainUnderLoad(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	drained := make(chan drainReport, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, config{
			addr: "127.0.0.1:0", queue: 64, workers: 2,
			queryTimeout: 2 * time.Second,
			mode:         "dag", planner: "minwork",
			stores: 4, sales: 200, seed: 7,
			drainTimeout: 30 * time.Second,
			ingest:       true, ingestRate: 4000,
			ingestSLO: 100 * time.Millisecond, ingestQueue: 1024,
			ready: ready, drained: drained,
		})
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("daemon exited during startup: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}

	// The ingester owns the window schedule; operator windows are refused.
	resp, err := http.Post(base+"/window", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("POST /window while ingesting = %d, want 409", resp.StatusCode)
	}

	// Queries answer while ingested windows commit; wait for a few windows.
	var st ingest.Stats
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(base + "/ingest")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("/ingest = %d", resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		qr, err := http.Get(base + "/query?q=SELECT+region,+SUM(amount)+AS+total+FROM+SALES_BY_STORE+GROUP+BY+region")
		if err != nil {
			t.Fatal(err)
		}
		qr.Body.Close()
		if qr.StatusCode != 200 {
			t.Fatalf("query during ingestion = %d", qr.StatusCode)
		}
		if st.Windows >= 3 && st.Accepted > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ingester never committed 3 windows: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// /stats counts the ingester's windows: every one committed by the time
	// /ingest reported it.
	resp, err = http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var served struct{ WindowsCommitted int64 }
	err = json.NewDecoder(resp.Body).Decode(&served)
	resp.Body.Close()
	if err != nil || served.WindowsCommitted < st.Windows {
		t.Fatalf("/stats counts %d committed windows, /ingest had reported %d: %v", served.WindowsCommitted, st.Windows, err)
	}

	// Drain mid-stream, as a signal would.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain returned %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("daemon did not drain")
	}
	rep := <-drained
	if rep.log.Len() != rep.log.StableLen() {
		t.Fatalf("the shipped log ends in a window in flight after a graceful drain: %d bytes, %d stable", rep.log.Len(), rep.log.StableLen())
	}
	if rep.ingest.Err != "" {
		t.Fatalf("ingester died during the run: %s", rep.ingest.Err)
	}
	if rep.stats.WindowsCommitted != rep.ingest.Windows {
		t.Fatalf("the drain line counts %d committed windows, the ingester committed %d", rep.stats.WindowsCommitted, rep.ingest.Windows)
	}
	if rep.ingest.Accepted < st.Accepted {
		t.Fatalf("accepted count went backwards across the drain (%d < %d)",
			rep.ingest.Accepted, st.Accepted)
	}
	image, _, _ := rep.log.Chunk(0, 0)
	lg, err := journal.ReadLog(bytes.NewReader(image))
	if err != nil || lg.Truncated || lg.InFlight() != nil {
		t.Fatalf("the shipped log reads as truncated=%v, in flight=%v: %v", lg.Truncated, lg.InFlight() != nil, err)
	}
	if n := len(lg.Pending()); n != 0 {
		t.Fatalf("drain stranded %d accept(s) no committed window installs", n)
	}
	if lg.LastAccept() != uint64(rep.ingest.AcceptedBatches) {
		t.Fatalf("the log holds %d accepts, the ingester accepted %d batches", lg.LastAccept(), rep.ingest.AcceptedBatches)
	}
}

// TestPprofMux checks the opt-in profiling mux serves the stdlib pprof
// index without touching the query mux.
func TestPprofMux(t *testing.T) {
	srv := httptest.NewServer(pprofMux())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/debug/pprof/ = %d", resp.StatusCode)
	}
}

// TestUsageErrors: a mistyped -planner or -mode, a -mem-budget-mb that is
// negative or past int64's bytes, or an excluded flag combination, is refused
// as a usage error before anything is built or listened on — not accepted and
// then failed by every window. The context is
// cancelled already, so a daemon that accepts its flags drains at once.
func TestUsageErrors(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for name, cfg := range map[string]config{
		"planner":                   {planner: "minwrok", mode: "dag"},
		"mode":                      {planner: "shared", mode: "dagg"},
		"ingest+follow":             {planner: "minwork", mode: "dag", ingest: true, ingestRate: 10, follow: "127.0.0.1:1"},
		"window-every+follow":       {planner: "minwork", mode: "dag", windowEvery: time.Second, follow: "127.0.0.1:1"},
		"ingest, planner typo":      {planner: "prun", mode: "dag", ingest: true, ingestRate: 10},
		"window-budget+ingest":      {planner: "minwork", mode: "dag", ingest: true, ingestRate: 10, windowBudget: time.Second},
		"window-budget+follow":      {planner: "minwork", mode: "dag", windowBudget: time.Second, follow: "127.0.0.1:1"},
		"negative mem-budget-mb":    {planner: "minwork", mode: "dag", memBudgetMB: -1},
		"overflowing mem-budget-mb": {planner: "minwork", mode: "dag", memBudgetMB: 1 << 43},
	} {
		cfg.addr, cfg.stores, cfg.sales = "127.0.0.1:0", 1, 1
		ready := make(chan string, 1)
		cfg.ready = ready
		err := run(cancelled, cfg)
		var ue usageError
		if !errors.As(err, &ue) {
			t.Errorf("%s: run returned %v, want a usage error", name, err)
		}
		select {
		case addr := <-ready:
			t.Errorf("%s: the daemon listened on %s before refusing its flags", name, addr)
		default:
		}
	}
}

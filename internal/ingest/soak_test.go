package ingest

import (
	"context"
	"flag"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	warehouse "repro"
	"repro/internal/faults"
	"repro/internal/journal/journaltest"
)

// -soak stretches TestSoakIngest's wall-clock budget; `make soak-smoke` runs
// it at ~25s under -race. The default keeps plain `go test` fast.
var soakDur = flag.Duration("soak", 1500*time.Millisecond, "ingest soak duration")

// TestSoakIngest runs continuous ingestion under probabilistic faults for a
// wall-clock budget: transient faults fire randomly at window steps and
// accept appends, and incarnations are killed with injected crashes and
// restarted mid-stream, each over a journal that ends in a torn frame. At the
// end the warehouse must equal the sequential oracle over the accepted stream
// (digest-clean recovery), no goroutines may leak, and staleness must not
// have run away.
func TestSoakIngest(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	const (
		seed   = int64(77)
		stores = 8
		sales  = 150
	)
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	wjPath := filepath.Join(dir, "window.journal")
	sets := genSets(seed, stores, sales, 512, 6)
	soakLimit := len(sets) - 64 // tail reserved for the paced freshness phase
	baseline := runtime.NumGoroutine()
	deadline := time.Now().Add(*soakDur)

	next := 0
	incarnations, crashes := 0, 0
	var lastStats Stats
	for {
		incarnations++
		if incarnations > 2000 {
			t.Fatal("soak thrashing: 2000 incarnations without converging")
		}
		w := buildFixture(t, seed, stores, sales)
		wj, err := warehouse.OpenJournal(wjPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Restore(wj); err != nil {
			t.Fatalf("incarnation %d: Restore: %v", incarnations, err)
		}
		inj := faults.New(rng.Int63())
		soaking := time.Now().Before(deadline)
		if soaking {
			// Probabilistic transient faults; most incarnations also get a
			// scheduled kill. The post-deadline incarnation runs clean so the
			// soak always converges.
			inj.SetProbability("step", 0.01)
			inj.SetProbability(pointJournal, 0.002)
			points := []string{pointAccept, pointCut, pointStage, "step"}
			inj.CrashAt(points[rng.Intn(len(points))], 1+rng.Intn(12))
		}
		ing, err := New(Config{
			Warehouse:    w,
			Journal:      wj,
			SLO:          50 * time.Millisecond,
			Tick:         time.Millisecond,
			QueueLimit:   512,
			BlockTimeout: 20 * time.Millisecond,
			Faults:       inj,
		})
		if err != nil {
			t.Fatalf("incarnation %d: New: %v", incarnations, err)
		}
		wait := startRun(ing)
		for next < soakLimit && time.Now().Before(deadline) {
			err := ing.Submit("SALES", sets[next].delta(t, w))
			if err == nil {
				next++
				continue
			}
			if faults.IsCrash(err) || ing.Stats().Err != "" {
				break // incarnation is dead
			}
			// Overloaded or transient: back off and retry the same set.
			time.Sleep(500 * time.Microsecond)
		}
		closeErr := ing.Close(context.Background())
		runErr := wait()
		lastStats = ing.Stats()
		wj.Close()
		if closeErr == nil && runErr == nil {
			if next >= soakLimit || !time.Now().Before(deadline) {
				break // converged (or drained clean at the deadline)
			}
			continue
		}
		// The incarnation died: leave the journal as a power loss would,
		// with half a frame at the end for the next open to cut off.
		crashes++
		if err := journaltest.TearTail(wjPath); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("soak: %d incarnations, %d crashes, %d/%d sets accepted, %d windows, p99 staleness %.1fms",
		incarnations, crashes, next, len(sets), lastStats.Windows, lastStats.StalenessP99MS)

	// No staleness runaway: after the fault storm, a clean incarnation under
	// paced load must return to SLO-regime freshness — crash backlogs drain
	// instead of compounding.
	{
		w := buildFixture(t, seed, stores, sales)
		wj, err := warehouse.OpenJournal(wjPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Restore(wj); err != nil {
			t.Fatalf("paced-phase restore: %v", err)
		}
		ing, err := New(Config{
			Warehouse: w,
			Journal:   wj,
			SLO:       50 * time.Millisecond,
			Tick:      time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		wait := startRun(ing)
		phaseStart := time.Now()
		for i := 0; i < 40 && next < len(sets); i++ {
			if err := ing.Submit("SALES", sets[next].delta(t, w)); err != nil {
				t.Fatalf("paced submit: %v", err)
			}
			next++
			time.Sleep(2 * time.Millisecond)
		}
		if err := ing.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := wait(); err != nil {
			t.Fatal(err)
		}
		phase := time.Since(phaseStart)
		st := ing.Stats()
		wj.Close()
		t.Logf("paced: requeued=%d windows=%d p50=%.1fms p99=%.1fms phase=%s",
			st.Requeued, st.Windows, st.StalenessP50MS, st.StalenessP99MS, phase.Round(time.Millisecond))
		// Runaway means the crash backlog compounded instead of draining: a
		// change's staleness approaching the whole paced phase's wall clock.
		// The bound is relative to the phase so a loaded host (slow windows,
		// high absolute staleness) doesn't read as a backlog that never drained.
		limit := float64(phase.Milliseconds())
		if limit < 1000 {
			limit = 1000
		}
		if st.Windows > 0 && st.StalenessP99MS > limit {
			t.Fatalf("staleness did not recover after the fault storm: p99 %.1fms over a %s phase", st.StalenessP99MS, phase)
		}
	}

	// Digest-clean recovery: final state equals the oracle over the accepted
	// prefix, and the journal holds each accept once, installed.
	w := buildFixture(t, seed, stores, sales)
	wj, err := warehouse.OpenJournal(wjPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Restore(wj); err != nil {
		t.Fatalf("final restore: %v", err)
	}
	want := oracleDigest(t, seed, stores, sales, sets[:next])
	if got := w.StateDigest(); got != want {
		t.Fatalf("digest mismatch after soak: got %x want %x", got, want)
	}
	wj.Close()
	installedOnce(t, wjPath, next)

	// No goroutine leaks once the timers settle.
	var now int
	for i := 0; i < 50; i++ {
		if now = runtime.NumGoroutine(); now <= baseline+2 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if now > baseline+2 {
		t.Fatalf("goroutine leak: %d at start, %d after soak", baseline, now)
	}
}

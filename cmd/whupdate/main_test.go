package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	warehouse "repro"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/tpcd"
)

// buildFacade assembles the TPC-D warehouse the way run does.
func buildFacade(t *testing.T, cfg tpcd.Config) (*tpcd.Warehouse, *warehouse.Warehouse) {
	t.Helper()
	tw, err := tpcd.NewWarehouse(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tw, warehouse.FromCore(tw.W, warehouse.CostModel{})
}

// journalState opens the journal the way the next whupdate run would and
// reports what it holds.
func journalState(t *testing.T, path string) (committed int, needsRecovery bool) {
	t.Helper()
	j, err := warehouse.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	return j.Committed(), j.NeedsRecovery()
}

// exitCode extracts the exit code run's error maps to.
func exitCode(err error) int {
	if err == nil {
		return exitOK
	}
	var xe exitErr
	if errors.As(err, &xe) {
		return xe.code
	}
	return exitData
}

// TestUsageExitCode: unknown planners and modes, -resume without a journal
// and a -mem-budget-mb that is no byte count are usage errors (2).
func TestUsageExitCode(t *testing.T) {
	if got := exitCode(run(options{sf: 0.001, par: "bogus"})); got != exitUsage {
		t.Fatalf("unknown mode: exit %d, want %d", got, exitUsage)
	}
	if got := exitCode(run(options{sf: 0.001, planner: "bogus"})); got != exitUsage {
		t.Fatalf("unknown planner: exit %d, want %d", got, exitUsage)
	}
	if got := exitCode(run(options{sf: 0.001, planner: "minwork", resume: true})); got != exitUsage {
		t.Fatalf("-resume without -journal: exit %d, want %d", got, exitUsage)
	}
	// A budget in MiB that is negative, or whose bytes wrap an int64, is no
	// budget: it once ran unbounded or under a wrapped one.
	for _, mb := range []int64{-1, 1 << 43, 1<<44 + 1} {
		if got := exitCode(run(options{sf: 0.001, planner: "minwork", memBudgetMB: mb})); got != exitUsage {
			t.Fatalf("-mem-budget-mb %d: exit %d, want %d", mb, got, exitUsage)
		}
	}
}

// TestDataExitCode: an impossible warehouse build is a data error (1).
func TestDataExitCode(t *testing.T) {
	if got := exitCode(run(options{sf: -1, planner: "minwork"})); got != exitData {
		t.Fatalf("bad scale factor: exit %d, want %d", got, exitData)
	}
}

// TestCrashResumeFlow: a window that dies mid-execution leaves the journal
// in-flight; whupdate then refuses new windows (exit 4) until -resume,
// which rebuilds the warehouse from the same -sf/-seed and completes the
// journaled window exactly.
func TestCrashResumeFlow(t *testing.T) {
	const sf, seed, p = 0.001, int64(7), 0.10
	path := filepath.Join(t.TempDir(), "wh.journal")

	// Simulate the dying process: build, checkpoint, stage, and run the
	// journaled window into a crash at step 3.
	tw, w := buildFacade(t, tpcd.Config{SF: sf, Seed: seed})
	if err := writeCheckpoint(context.Background(), w, path); err != nil {
		t.Fatal(err)
	}
	if _, err := tw.StageChanges(tpcd.UniformDecrease(p)); err != nil {
		t.Fatal(err)
	}
	j, err := warehouse.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	inj := warehouse.NewFaultInjector(1)
	inj.CrashAt("step", 3)
	_, err = w.RunWindowOpts(warehouse.WindowOptions{
		Journal: j, Mode: warehouse.ModeDAG, Workers: 4, Faults: inj,
	})
	j.Close()
	if err == nil {
		t.Fatal("crashed window reported success")
	}

	// A fresh whupdate run without -resume must refuse with exit 4.
	base := options{sf: sf, seed: seed, p: p, planner: "minwork", journal: path}
	if got := exitCode(run(base)); got != exitRecovery {
		t.Fatalf("in-flight journal: exit %d, want %d", got, exitRecovery)
	}

	// -resume completes the window against the rebuilt warehouse and
	// verifies the final state against recomputation.
	withResume := base
	withResume.resume = true
	if err := run(withResume); err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	if committed, needs := journalState(t, path); needs || committed != 1 {
		t.Fatalf("journal after resume: committed=%d needsRecovery=%v", committed, needs)
	}

	// With the journal clean, the next journaled window runs normally.
	if err := run(base); err != nil {
		t.Fatalf("post-recovery window failed: %v", err)
	}
	if committed, _ := journalState(t, path); committed != 2 {
		t.Fatalf("journal holds %d committed windows, want 2", committed)
	}
}

// TestInterruptExitCode: a cancelled process context (what SIGINT/SIGTERM
// deliver through main's NotifyContext) aborts the window with exit 3 and
// leaves the journal consistent — an abort record closes the window, so no
// -resume is needed and the next run proceeds normally.
func TestInterruptExitCode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wh.journal")
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the signal already fired
	o := options{ctx: ctx, sf: 0.001, seed: 7, p: 0.10, planner: "minwork", par: "dag", journal: path}
	if got := exitCode(run(o)); got != exitWindow {
		t.Fatalf("interrupted window: exit %d, want %d", got, exitWindow)
	}
	committed, needs := journalState(t, path)
	if needs {
		t.Fatal("interrupted window left the journal in-flight; want an abort record")
	}
	if committed != 0 {
		t.Fatalf("interrupted window committed %d windows", committed)
	}

	// The same invocation with a live context completes and commits.
	o.ctx = context.Background()
	if err := run(o); err != nil {
		t.Fatalf("post-interrupt window failed: %v", err)
	}
	if committed, _ := journalState(t, path); committed != 1 {
		t.Fatalf("journal after rerun: committed=%d", committed)
	}
}

// TestCheckpointNotAdoptedOnCancel: an interrupt during the pre-window
// checkpoint abandons the temp file before the rename, so no half-written
// .snap appears — and an existing good checkpoint is left untouched.
func TestCheckpointNotAdoptedOnCancel(t *testing.T) {
	_, w := buildFacade(t, tpcd.Config{SF: 0.001, Seed: 7})
	jpath := filepath.Join(t.TempDir(), "wh.journal")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := writeCheckpoint(ctx, w, jpath); err == nil {
		t.Fatal("cancelled checkpoint reported success")
	}
	if _, err := os.Stat(checkpointPath(jpath)); !os.IsNotExist(err) {
		t.Fatalf("cancelled checkpoint left %s behind (stat err=%v)", checkpointPath(jpath), err)
	}
	leftovers, _ := filepath.Glob(filepath.Join(filepath.Dir(jpath), ".*"))
	if len(leftovers) != 0 {
		t.Fatalf("cancelled checkpoint leaked temp files: %v", leftovers)
	}

	// A good checkpoint, then a cancelled rewrite: the good one survives.
	if err := writeCheckpoint(context.Background(), w, jpath); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(checkpointPath(jpath))
	if err != nil {
		t.Fatal(err)
	}
	if err := writeCheckpoint(ctx, w, jpath); err == nil {
		t.Fatal("cancelled rewrite reported success")
	}
	after, err := os.ReadFile(checkpointPath(jpath))
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("cancelled rewrite clobbered the good checkpoint")
	}
}

// TestBudgetedPrunePlansWithTheFacadeModel: -mem-budget-mb prices spill I/O
// into the planners' cost model, and at this scale that changes which
// strategy Prune picks. The window whupdate journals must run the strategy
// the facade plans under the budget, not the unbudgeted model's.
func TestBudgetedPrunePlansWithTheFacadeModel(t *testing.T) {
	const sf, seed, p, budgetMB = 0.004, int64(7), 0.10, int64(1)
	planned := func(budget int64) string {
		tw, w := buildFacade(t, tpcd.Config{SF: sf, Seed: seed, Options: core.Options{MemoryBudgetBytes: budget}})
		if _, err := tw.StageChanges(tpcd.UniformDecrease(p)); err != nil {
			t.Fatal(err)
		}
		plan, err := w.Plan(warehouse.PrunePlanner)
		if err != nil {
			t.Fatal(err)
		}
		return plan.Strategy.String()
	}
	want := planned(budgetMB << 20)
	if want == planned(0) {
		t.Fatal("the budget does not change Prune's choice at this scale: the test checks nothing")
	}

	path := filepath.Join(t.TempDir(), "wh.journal")
	if err := run(options{sf: sf, seed: seed, p: p, planner: "prune", memBudgetMB: budgetMB, journal: path}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lg, err := journal.ReadLog(f)
	if err != nil || len(lg.Windows) != 1 {
		t.Fatalf("journal: %d windows, err %v", len(lg.Windows), err)
	}
	if got := lg.Windows[0].Begin.Strategy.String(); got != want {
		t.Fatalf("whupdate ran\n%s\nthe facade plans, under the same budget,\n%s", got, want)
	}
}

// TestFailedWindowLeavesWarehouseUntouched: every whupdate window — also an
// unjournaled one — runs on a clone, so a window whose every rung fails past
// its first installs leaves the served state at its pre-window digest with the
// batch still staged, and the warehouse still verifies.
func TestFailedWindowLeavesWarehouseUntouched(t *testing.T) {
	tw, w := buildFacade(t, tpcd.Config{SF: 0.001, Seed: 7})
	before := w.StateDigest()
	if _, err := tw.StageChanges(tpcd.UniformDecrease(0.10)); err != nil {
		t.Fatal(err)
	}
	// The sixth step of the sequential attempt and of both its retries fails,
	// and so does the recompute rung.
	inj := warehouse.NewFaultInjector(1)
	for hit := 6; hit <= 18; hit += 6 {
		inj.FailAt("step", hit)
	}
	inj.FailAt("recompute", 1)
	err := runWindow(context.Background(), w, nil, warehouse.MinWorkPlanner, warehouse.ModeSequential, options{faults: inj})
	if got := exitCode(err); got != exitWindow {
		t.Fatalf("failed window: exit %d (%v), want %d", got, err, exitWindow)
	}
	if got := w.StateDigest(); got != before {
		t.Fatalf("state digest %016x after the failed window, %016x before it", got, before)
	}
	if len(w.Pending()) == 0 {
		t.Fatal("the failed window consumed the staged batch")
	}
	if err := w.Verify(); err != nil {
		t.Fatalf("warehouse after the failed window: %v", err)
	}
}

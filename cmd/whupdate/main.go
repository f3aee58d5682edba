// Command whupdate runs one warehouse update window over the TPC-D
// warehouse of the paper: it stages a change batch, plans an update
// strategy with the chosen planner, prints the strategy, executes it, and
// reports the measured update window.
//
// Usage:
//
//	whupdate [-sf 0.002] [-seed 7] [-p 0.10] [-insert 0]
//	         [-planner minwork|prune|dualstage|shared]
//	         [-par sequential|staged|dag] [-workers N] [-par-terms]
//	         [-share] [-explain-sharing] [-mem-budget-mb N]
//	         [-skip-empty] [-timeout d] [-journal f [-resume]]
//	         [-v] [-cpuprofile f] [-memprofile f]
//
// -par staged executes the Section 9 barrier plan (one goroutine per stage
// expression); -par dag schedules the precedence DAG barrier-free with a
// pool of -workers goroutines (0 = GOMAXPROCS). -par-terms additionally
// parallelizes *inside* each compute expression (concurrent maintenance
// terms, morsel-parallel probes, shared build tables); it composes with
// -par dag under the same -workers budget. -share keeps the build cache for
// the whole window: a build side several views' compute expressions hash is
// built once and reused across them until its view installs. -planner shared
// runs the sharing-aware Prune search: candidates are costed by
// sharing-adjusted work (multi-consumer operands charged once).
// -explain-sharing prints the planned election (each candidate's estimated
// size and savings) before the window and each build the window's cache held
// — requests, hits, bytes, fate — after it. -mem-budget-mb bounds the
// window's total transient build-state memory, the builds -share keeps
// included: every build-side hash table draws on one budget and builds that
// do not fit spill to disk Grace-style, probed partition-wise — results and
// measured work are identical at any budget, only bytes moved change (0 =
// unbounded; a negative count, or one past int64's bytes, is a usage error).
// -cpuprofile/-memprofile write pprof profiles of the run so term-evaluation
// hot spots are measurable in the field.
//
// Every window runs the way the library's other callers run theirs —
// warehouse.RunWindowOpts: planned by the named planner, executed on a
// copy-on-write clone and adopted only on success, so a failed window leaves
// the warehouse as it was. (The paper's worst case, MinWork's ordering
// reversed, is built and measured by the fig15 experiment.)
//
// -timeout bounds the run's wall-clock time; cancellation propagates
// through the DAG scheduler and the morsel pool. -journal makes the window
// crash-safe: a pre-window checkpoint is written next to the journal
// (<journal>.snap) and begin/step/commit records frame the execution in an
// append-only checksummed file. If the journal ends mid-window (the
// previous run died), whupdate exits with code 4 until rerun with -resume,
// which restores the checkpoint and completes the journaled window
// (warehouse.Recover), skipping steps the dead run finished. A failed
// window climbs the library's one ladder (warehouse.RunWindowOpts): two
// in-place retries of a transient failure, a sequential attempt of a staged
// or DAG window, then install-and-recompute.
//
// Exit codes: 0 success, 1 data/build error, 2 usage error, 3 window
// execution or verification failure, 4 recovery needed.
//
// SIGINT/SIGTERM cancel the in-flight window: execution stops at the next
// step boundary, the staged batch is not applied, and whupdate exits 3. A
// journaled window appends an abort record on the way out, so the journal
// stays consistent — no -resume is needed after an interrupt, only after a
// real crash.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	warehouse "repro"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/planner"
	"repro/internal/tpcd"
)

// Exit codes.
const (
	exitOK       = 0
	exitData     = 1
	exitUsage    = 2
	exitWindow   = 3
	exitRecovery = 4
)

// exitErr pairs an error with the process exit code it warrants.
type exitErr struct {
	code int
	err  error
}

func (e exitErr) Error() string { return e.err.Error() }
func (e exitErr) Unwrap() error { return e.err }

func usageErr(err error) error    { return exitErr{exitUsage, err} }
func windowErr(err error) error   { return exitErr{exitWindow, err} }
func recoveryErr(err error) error { return exitErr{exitRecovery, err} }

func main() {
	sf := flag.Float64("sf", 0.002, "TPC-D scale factor")
	seed := flag.Int64("seed", 7, "generation seed")
	p := flag.Float64("p", 0.10, "delete fraction for C, O, L, S, N")
	insert := flag.Float64("insert", 0, "insert fraction for C, O, L, S")
	plannerName := flag.String("planner", "minwork", "minwork | prune | dualstage | shared")
	par := flag.String("par", "", "execution mode: sequential | staged | dag")
	workers := flag.Int("workers", 0, "worker budget for -par dag and -par-terms (0 = GOMAXPROCS)")
	parTerms := flag.Bool("par-terms", false, "parallelize inside each compute expression (terms + morsels, shared builds)")
	share := flag.Bool("share", false, "share computed operands across views within the window (cross-view CSE)")
	explainSharing := flag.Bool("explain-sharing", false, "print the sharing election (planned candidates) and each entry's estimated vs observed bytes and hits")
	memBudgetMB := flag.Int64("mem-budget-mb", 0, "window memory budget for build-side state, in MiB; oversized builds spill to disk (0 = unbounded)")
	skipEmpty := flag.Bool("skip-empty", false, "elide compute expressions whose deltas are empty (footnote 5)")
	timeout := flag.Duration("timeout", 0, "bound the run's wall-clock time (0 = no limit)")
	journalPath := flag.String("journal", "", "journal the window to this file (crash-safe execution)")
	resume := flag.Bool("resume", false, "complete the journal's in-flight window instead of running a new one")
	verbose := flag.Bool("v", false, "print per-expression work")
	dot := flag.Bool("dot", false, "print the expression graph (Graphviz) instead of executing")
	script := flag.Bool("script", false, "print the §5.5 update script and stored-procedure catalog instead of executing")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile (post-run) to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "whupdate:", err)
			os.Exit(exitData)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "whupdate:", err)
			os.Exit(exitData)
		}
		defer pprof.StopCPUProfile()
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(options{
		ctx: ctx,
		sf:  *sf, seed: *seed, p: *p, insert: *insert, planner: *plannerName,
		par: *par, workers: *workers, parTerms: *parTerms,
		share: *share, memBudgetMB: *memBudgetMB,
		explainSharing: *explainSharing,
		skipEmpty:      *skipEmpty, verbose: *verbose,
		dot: *dot, script: *script,
		timeout: *timeout, journal: *journalPath, resume: *resume,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "whupdate:", err)
		code := exitData
		var xe exitErr
		if errors.As(err, &xe) {
			code = xe.code
		}
		os.Exit(code)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "whupdate:", err)
			os.Exit(exitData)
		}
		defer f.Close()
		runtime.GC() // settle allocations so the heap profile reflects live data
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "whupdate:", err)
			os.Exit(exitData)
		}
	}
}

type options struct {
	// ctx carries process-level cancellation (SIGINT/SIGTERM); nil means
	// Background.
	ctx                  context.Context
	sf, p, insert        float64
	seed                 int64
	planner, par         string
	workers              int
	parTerms             bool
	share                bool
	explainSharing       bool
	memBudgetMB          int64
	skipEmpty            bool
	verbose, dot, script bool
	timeout              time.Duration
	journal              string
	resume               bool
	// faults injects failures into the window (tests; no flag sets it).
	faults *warehouse.FaultInjector
}

func run(o options) error {
	mode, err := warehouse.ParseMode(o.par)
	if err != nil {
		return usageErr(err)
	}
	if o.resume && o.journal == "" {
		return usageErr(errors.New("-resume requires -journal"))
	}
	plannerName, err := warehouse.ParsePlanner(o.planner)
	if err != nil {
		return usageErr(err)
	}
	memBudget, err := warehouse.MiB(o.memBudgetMB)
	if err != nil {
		return usageErr(fmt.Errorf("-mem-budget-mb: %w", err))
	}

	// Open the journal first: an in-flight window blocks new work.
	var j *warehouse.Journal
	if o.journal != "" {
		if j, err = warehouse.OpenJournal(o.journal); err != nil {
			return err
		}
		defer j.Close()
		if j.NeedsRecovery() && !o.resume {
			return recoveryErr(fmt.Errorf("journal %s ends in an in-flight window; rerun with -resume (same -sf/-seed) to complete it", o.journal))
		}
		if !j.NeedsRecovery() && o.resume {
			fmt.Printf("journal %s has no in-flight window; nothing to resume\n", o.journal)
			return nil
		}
		if n := j.SpillDirsSwept(); n > 0 {
			fmt.Printf("swept %d stale spill directories left by crashed windows\n", n)
		}
	}

	ctx := o.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if o.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
	}

	start := time.Now()
	tw, err := tpcd.NewWarehouse(tpcd.Config{SF: o.sf, Seed: o.seed, Options: core.Options{
		SkipEmptyDeltas: o.skipEmpty, ParallelTerms: o.parTerms, Workers: o.workers,
		ShareComputation: o.share, MemoryBudgetBytes: memBudget,
	}})
	if err != nil {
		return err
	}
	w := warehouse.FromCore(tw.W, warehouse.CostModel{})
	if o.parTerms {
		fmt.Printf("term-parallel engine on (workers=%d)\n", o.workers)
	}
	if o.share {
		fmt.Println("window-wide shared computation on")
	}
	if o.memBudgetMB > 0 {
		fmt.Printf("window memory budget %dMiB (oversized builds spill to disk)\n", o.memBudgetMB)
	}
	fmt.Printf("built TPC-D warehouse (SF=%g) in %s\n", o.sf, time.Since(start).Round(time.Millisecond))
	for _, v := range w.Views() {
		n, err := w.Size(v)
		if err != nil {
			return err
		}
		fmt.Printf("  %-9s %8d rows\n", v, n)
	}

	if o.resume {
		return recoverWindow(ctx, w, j, o)
	}
	// The checkpoint must capture the pre-window state before any staging:
	// the snapshot format holds installed views only, and -resume re-stages
	// the batch from the journal's begin record.
	if j != nil {
		if err := writeCheckpoint(ctx, w, o.journal); err != nil {
			if ctx.Err() != nil {
				// Interrupted mid-checkpoint: the temp file was abandoned
				// before the rename, so no half-written .snap was adopted
				// and nothing was appended to the journal.
				return windowErr(err)
			}
			return err
		}
	}

	var spec tpcd.ChangeSpec
	if o.insert > 0 {
		spec = tpcd.Mixed(o.p, o.insert)
	} else {
		spec = tpcd.UniformDecrease(o.p)
	}
	// tw.W is the core the facade serves until its first window commits.
	sizes, err := tw.StageChanges(spec)
	if err != nil {
		return err
	}
	fmt.Printf("staged changes:")
	for _, v := range tpcd.BaseViews {
		if n, ok := sizes[v]; ok {
			fmt.Printf(" δ%s=%d", v, n)
		}
	}
	fmt.Println()
	return runWindow(ctx, w, j, plannerName, mode, o)
}

// runWindow plans the staged batch, prints the plan, and — unless -dot or
// -script only wanted to see it — runs, reports and verifies the window.
func runWindow(ctx context.Context, w *warehouse.Warehouse, j *warehouse.Journal, plannerName warehouse.PlannerName, mode warehouse.Mode, o options) error {
	// The plan is printed from the planner's own answer; the window below
	// plans the same staged batch again and runs what it planned.
	plan, err := w.Plan(plannerName)
	if err != nil {
		return err
	}
	printPlan(plan)
	if o.explainSharing {
		election, err := w.ExplainSharing(plan.Strategy)
		if err != nil {
			return err
		}
		fmt.Print(election)
	}

	if o.dot {
		g, err := w.Graph()
		if err != nil {
			return err
		}
		stats, err := w.PlanningStats()
		if err != nil {
			return err
		}
		ord, err := planner.DesiredOrdering(g.ViewsWithParents(), stats)
		if err != nil {
			return err
		}
		fmt.Print(planner.ConstructEG(g, ord).DotString())
		return nil
	}
	if o.script {
		fmt.Println("-- stored procedures (defined once per VDAG):")
		fmt.Print(exec.ProcedureCatalog(w.Internal()))
		fmt.Println()
		fmt.Print(w.Script(plan.Strategy))
		return nil
	}

	rep, err := w.RunWindowOpts(warehouse.WindowOptions{
		Planner: plannerName, Mode: mode, Workers: o.workers,
		Journal: j, Context: ctx, Faults: o.faults,
	})
	if err != nil {
		if j != nil && errors.Is(err, warehouse.ErrWindowAborted) {
			// Interrupt or deadline: the attempt appended an abort
			// record, so the journal is consistent — no resume needed.
			fmt.Fprintf(os.Stderr, "whupdate: window aborted (%v); journal %s is consistent, staged batch not applied\n", ctx.Err(), o.journal)
		} else if j != nil && j.NeedsRecovery() {
			fmt.Fprintf(os.Stderr, "whupdate: journal %s holds an in-flight window; a rerun with -resume will complete it\n", o.journal)
		}
		return windowErr(err)
	}
	printWindow(w, rep, o)
	return verify(w)
}

// printPlan renders a plan's provenance — whatever of ordering, search size
// and estimate its planner produced — and its strategy.
func printPlan(plan warehouse.Plan) {
	fmt.Printf("planned with %s:", plan.Planner)
	if plan.Ordering != nil {
		fmt.Printf(" ordering %v", plan.Ordering)
	}
	if plan.Modified {
		fmt.Printf(" (modified)")
	}
	if plan.Examined > 0 {
		fmt.Printf(" examined %d ordering prefixes (%d orderings completed);", plan.Examined, plan.Feasible)
	}
	fmt.Printf(" work estimate %.0f\n", plan.EstimatedWork)
	fmt.Printf("strategy: %s\n", plan.Strategy)
}

// recoverWindow completes the journal's in-flight window: the pre-window
// checkpoint (written next to the journal) is restored over the rebuilt
// warehouse, the journaled state digest verifies the restore, the journaled
// batch is re-staged, and the journaled strategy re-executed — skipping
// steps the crashed run already completed. Once begun the recovery runs to
// its commit; an interrupt that arrived before it leaves the journal as it
// was.
func recoverWindow(ctx context.Context, w *warehouse.Warehouse, j *warehouse.Journal, o options) error {
	if err := ctx.Err(); err != nil {
		return windowErr(fmt.Errorf("interrupted before the resume began (%w); journal %s is unchanged", err, o.journal))
	}
	snap, err := os.Open(checkpointPath(o.journal))
	if err != nil {
		return recoveryErr(fmt.Errorf("resume needs the pre-window checkpoint: %w", err))
	}
	err = w.LoadSnapshot(snap)
	snap.Close()
	if err != nil {
		return recoveryErr(fmt.Errorf("restoring checkpoint %s: %w", checkpointPath(o.journal), err))
	}
	fmt.Printf("restored pre-window checkpoint %s\n", checkpointPath(o.journal))
	rep, err := w.Recover(j)
	if err != nil {
		return recoveryErr(fmt.Errorf("resuming journal %s: %w", o.journal, err))
	}
	fmt.Printf("resumed in-flight window %d (%s, %s): strategy %s\n", j.Committed(), rep.Planner, rep.Mode, rep.Plan.Strategy)
	printWindow(w, rep, o)
	return verify(w)
}

// checkpointPath names the pre-window checkpoint written next to the
// journal. Resume restores it instead of trusting a rebuild to be
// bit-identical: regeneration from -sf/-seed reproduces every row, but
// float aggregates accumulate in hash order, so their digests drift
// between runs.
func checkpointPath(journalPath string) string { return journalPath + ".snap" }

// writeCheckpoint snapshots the installed (pre-window) state atomically
// (Warehouse.SaveSnapshotFile: temp file + rename). It must run before
// staging — the snapshot format holds installed views only; the journal's
// begin record carries the batch. The write observes ctx: an interrupt
// mid-checkpoint abandons the temp file, and because the rename is the commit
// point, a cancelled (half-written) checkpoint can never be adopted as
// <journal>.snap.
func writeCheckpoint(ctx context.Context, w *warehouse.Warehouse, journalPath string) error {
	path := checkpointPath(journalPath)
	if err := w.SaveSnapshotFile(ctx, path); err != nil {
		return fmt.Errorf("writing checkpoint %s: %w", path, err)
	}
	return nil
}

// printWindow reports a completed window: with -v every step, then the
// window's one-line summary (work, schedule bounds, sharing, spills,
// degradation), and with -explain-sharing the builds its cache held.
func printWindow(w *warehouse.Warehouse, rep warehouse.WindowReport, o options) {
	if rep.Mode == warehouse.ModeStaged || rep.Mode == warehouse.ModeDAG {
		fmt.Printf("%s plan (%d stages): %s\n", rep.Mode, rep.Parallel.Levels, w.Parallelize(rep.Plan.Strategy))
	}
	if o.verbose {
		for _, step := range rep.Report.Steps {
			fmt.Printf("  %-28s work=%8d terms=%2d worker=%d %s%s\n",
				step.Expr, step.Work, step.Terms, step.Worker, step.Elapsed.Round(time.Microsecond), cacheSuffix(step))
		}
	}
	fmt.Println("update", rep)
	if o.explainSharing {
		// The election was printed before the window; a nil strategy asks
		// for the observed half alone, which cannot fail.
		observed, _ := w.ExplainSharing(nil)
		fmt.Print(observed)
	}
}

// verify checks the final state against full recomputation; a mismatch is a
// window failure (exit 3).
func verify(w *warehouse.Warehouse) error {
	t0 := time.Now()
	if err := w.Verify(); err != nil {
		return windowErr(fmt.Errorf("final state verification failed: %w", err))
	}
	fmt.Printf("verified against recomputation in %s\n", time.Since(t0).Round(time.Millisecond))
	return nil
}

// cacheSuffix renders a step's build-cache, shared-computation, spill and
// join-index accounting (empty when none of them touched the step).
func cacheSuffix(step warehouse.StepReport) string {
	var s string
	if step.CacheHits+step.CacheMisses > 0 {
		s += fmt.Sprintf(" cache=%d/%d saved=%d",
			step.CacheHits, step.CacheHits+step.CacheMisses, step.CacheTuplesSaved)
	}
	if step.SharedHits+step.SharedMisses > 0 {
		s += fmt.Sprintf(" shared=%d/%d saved=%d",
			step.SharedHits, step.SharedHits+step.SharedMisses, step.SharedTuplesSaved)
	}
	if step.SpillCount > 0 {
		s += fmt.Sprintf(" spills=%d", step.SpillCount)
	}
	if step.IndexProbes > 0 || step.IndexTuplesSaved > 0 {
		s += fmt.Sprintf(" index=%d probes saved=%d", step.IndexProbes, step.IndexTuplesSaved)
	}
	return s
}

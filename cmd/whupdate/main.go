// Command whupdate runs one warehouse update window over the TPC-D
// warehouse of the paper: it stages a change batch, plans an update
// strategy with the chosen planner, prints the strategy, executes it, and
// reports the measured update window.
//
// Usage:
//
//	whupdate [-sf 0.002] [-seed 7] [-p 0.10] [-insert 0]
//	         [-planner minwork|prune|dualstage|reverse|shared]
//	         [-par sequential|staged|dag] [-workers N] [-par-terms]
//	         [-share] [-share-budget-mb N] [-explain-sharing] [-mem-budget-mb N]
//	         [-skip-empty] [-timeout d] [-journal f [-resume]] [-retries N]
//	         [-v] [-cpuprofile f] [-memprofile f]
//
// -par staged executes the Section 9 barrier plan (one goroutine per stage
// expression); -par dag schedules the precedence DAG barrier-free with a
// pool of -workers goroutines (0 = GOMAXPROCS). -parallel is a deprecated
// alias for -par staged. -par-terms additionally parallelizes *inside* each
// compute expression (concurrent maintenance terms, morsel-parallel probes,
// shared build tables); it composes with -par dag under the same -workers
// budget. -share keeps the build cache for the whole window: a build side
// several views' compute expressions hash is built once and reused across
// them, bounded by -share-budget-mb of resident builds (0 = 64 MiB
// default). -planner shared runs the sharing-aware Prune search: candidates
// are costed by sharing-adjusted work (multi-consumer operands charged once,
// under the byte budget). -explain-sharing prints the planned election (each
// candidate's estimated size, savings and admission) before the window and
// each build the window's cache held — requests, hits, bytes, fate — after
// it.
// -mem-budget-mb bounds the window's total transient build-state
// memory: every build-side hash table draws on one budget and builds that do
// not fit spill to disk Grace-style, probed partition-wise — results and
// measured work are identical at any budget, only bytes moved change (0 =
// unbounded). -cpuprofile/-memprofile write pprof profiles of the run so
// term-evaluation hot spots are measurable in the field.
//
// -timeout bounds the window's wall-clock time; cancellation propagates
// through the DAG scheduler and the morsel pool. -journal makes the window
// crash-safe: a pre-window checkpoint is written next to the journal
// (<journal>.snap) and begin/step/commit records frame the execution in an
// append-only checksummed file. If the journal ends mid-window (the
// previous run died), whupdate exits with code 4 until rerun with -resume,
// which restores the checkpoint and completes the journaled window,
// skipping steps the dead run finished. -retries retries transient
// failures with exponential backoff.
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

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/journal"
	"repro/internal/planner"
	"repro/internal/recovery"
	"repro/internal/strategy"
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
	plannerName := flag.String("planner", "minwork", "minwork | prune | dualstage | reverse | shared")
	parallelFlag := flag.Bool("parallel", false, "deprecated alias for -par staged")
	par := flag.String("par", "", "execution mode: sequential | staged | dag")
	workers := flag.Int("workers", 0, "worker budget for -par dag and -par-terms (0 = GOMAXPROCS)")
	parTerms := flag.Bool("par-terms", false, "parallelize inside each compute expression (terms + morsels, shared builds)")
	share := flag.Bool("share", false, "share computed operands across views within the window (cross-view CSE)")
	explainSharing := flag.Bool("explain-sharing", false, "print the sharing election (planned candidates) and each entry's estimated vs observed bytes and hits")
	shareBudgetMB := flag.Int64("share-budget-mb", 0, "transient materialization budget for -share, in MiB (0 = 64 MiB default)")
	memBudgetMB := flag.Int64("mem-budget-mb", 0, "window memory budget for build-side state, in MiB; oversized builds spill to disk (0 = unbounded)")
	skipEmpty := flag.Bool("skip-empty", false, "elide compute expressions whose deltas are empty (footnote 5)")
	timeout := flag.Duration("timeout", 0, "bound the window's wall-clock time (0 = no limit)")
	journalPath := flag.String("journal", "", "journal the window to this file (crash-safe execution)")
	resume := flag.Bool("resume", false, "complete the journal's in-flight window instead of running a new one")
	retries := flag.Int("retries", 0, "retry transient window failures this many times (exponential backoff)")
	verbose := flag.Bool("v", false, "print per-expression work")
	dot := flag.Bool("dot", false, "print the expression graph (Graphviz) instead of executing")
	script := flag.Bool("script", false, "print the §5.5 update script and stored-procedure catalog instead of executing")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile (post-run) to this file")
	flag.Parse()

	parName := *par
	if parName == "" && *parallelFlag {
		parName = "staged"
	}
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
		par: parName, workers: *workers, parTerms: *parTerms,
		share: *share, shareBudgetMB: *shareBudgetMB, memBudgetMB: *memBudgetMB,
		explainSharing: *explainSharing,
		skipEmpty:      *skipEmpty, verbose: *verbose,
		dot: *dot, script: *script,
		timeout: *timeout, journal: *journalPath, resume: *resume, retries: *retries,
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
	shareBudgetMB        int64
	memBudgetMB          int64
	skipEmpty            bool
	verbose, dot, script bool
	timeout              time.Duration
	journal              string
	resume               bool
	retries              int
}

func run(o options) error {
	sf, seed, p, insert := o.sf, o.seed, o.p, o.insert
	plannerName := o.planner
	skipEmpty, verbose := o.skipEmpty, o.verbose
	mode, err := exec.ParseMode(o.par)
	if err != nil {
		return usageErr(err)
	}
	if o.resume && o.journal == "" {
		return usageErr(errors.New("-resume requires -journal"))
	}
	switch plannerName {
	case "minwork", "prune", "dualstage", "reverse", "shared":
	default:
		return usageErr(fmt.Errorf("unknown planner %q", plannerName))
	}

	// Read the journal first: an in-flight window blocks new work.
	var jlog journal.Log
	if o.journal != "" {
		jlog, err = readJournalFile(o.journal)
		if err != nil {
			return err
		}
		if recovery.NeedsRecovery(&jlog) && !o.resume {
			return recoveryErr(fmt.Errorf("journal %s ends in an in-flight window; rerun with -resume (same -sf/-seed) to complete it", o.journal))
		}
		if !recovery.NeedsRecovery(&jlog) && o.resume {
			fmt.Printf("journal %s has no in-flight window; nothing to resume\n", o.journal)
			return nil
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
	tw, err := tpcd.NewWarehouse(tpcd.Config{
		SF: sf, Seed: seed, SkipEmptyDeltas: skipEmpty,
		ParallelTerms: o.parTerms, Workers: o.workers,
		ShareComputation:  o.share,
		SharedBudgetBytes: o.shareBudgetMB << 20,
		MemoryBudgetBytes: o.memBudgetMB << 20,
	})
	if err != nil {
		return err
	}
	if o.parTerms {
		fmt.Printf("term-parallel engine on (workers=%d)\n", o.workers)
	}
	if o.share {
		fmt.Printf("window-wide shared computation on (budget=%s)\n", budgetLabel(o.shareBudgetMB))
	}
	if o.memBudgetMB > 0 {
		fmt.Printf("window memory budget %dMiB (oversized builds spill to disk)\n", o.memBudgetMB)
	}
	fmt.Printf("built TPC-D warehouse (SF=%g) in %s\n", sf, time.Since(start).Round(time.Millisecond))
	for _, v := range tw.W.ViewNames() {
		fmt.Printf("  %-9s %8d rows\n", v, tw.W.MustView(v).Cardinality())
	}

	if o.resume {
		return resumeWindow(ctx, tw, &jlog, o)
	}
	// The checkpoint must capture the pre-window state before any staging:
	// the snapshot format holds installed views only, and -resume re-stages
	// the batch from the journal's begin record.
	if o.journal != "" {
		if err := writeCheckpoint(ctx, tw.W, o.journal); err != nil {
			if ctx.Err() != nil {
				// Interrupted mid-checkpoint: the temp file was abandoned
				// before the rename, so no half-written .snap was adopted
				// and the journal was never touched.
				return windowErr(err)
			}
			return err
		}
	}

	var spec tpcd.ChangeSpec
	if insert > 0 {
		spec = tpcd.Mixed(p, insert)
	} else {
		spec = tpcd.UniformDecrease(p)
	}
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

	stats, err := exec.PlanningStats(tw.W)
	if err != nil {
		return err
	}
	var s strategy.Strategy
	switch plannerName {
	case "minwork":
		res, err := planner.MinWork(tw.Graph, stats)
		if err != nil {
			return err
		}
		fmt.Printf("MinWork ordering: %v (modified=%v)\n", res.UsedOrdering, res.Modified)
		s = res.Strategy
	case "prune":
		res, err := planner.Prune(tw.Graph, cost.DefaultModel, stats, exec.RefCounts(tw.W))
		if err != nil {
			return err
		}
		fmt.Printf("Prune examined %d orderings (%d feasible); best work estimate %.0f\n",
			res.Examined, res.Feasible, res.Work)
		s = res.Strategy
	case "dualstage":
		s = strategy.DualStageVDAG(tw.Graph)
	case "shared":
		res, err := planner.PruneShared(tw.Graph, cost.DefaultModel, stats, exec.RefCounts(tw.W),
			planner.SharedSearchOptions{Refs: exec.RefsOf(tw.W), Sharing: sharingOpts(tw.W, o, stats)})
		if err != nil {
			return err
		}
		fmt.Printf("PruneShared examined %d orderings (%d feasible); best adjusted work %.0f (raw %.0f, dualstage=%v)\n",
			res.Examined, res.Feasible, res.AdjustedWork, res.Work, res.DualStage)
		s = res.Strategy
	case "reverse":
		res, err := planner.MinWork(tw.Graph, stats)
		if err != nil {
			return err
		}
		rev := res.UsedOrdering
		for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
			rev[i], rev[j] = rev[j], rev[i]
		}
		s, err = planner.ConstructEG(tw.Graph, rev).TopoSort()
		if err != nil {
			return err
		}
	default:
		return usageErr(fmt.Errorf("unknown planner %q", plannerName))
	}
	fmt.Printf("strategy: %s\n", s)
	if o.explainSharing {
		printSharingElection(planner.AnalyzeSharingOpts(s, exec.RefsOf(tw.W), sharingOpts(tw.W, o, stats)))
	}

	if o.dot {
		ord, err := planner.DesiredOrdering(tw.Graph.ViewsWithParents(), stats)
		if err != nil {
			return err
		}
		fmt.Print(planner.ConstructEG(tw.Graph, ord).DotString())
		return nil
	}
	if o.script {
		fmt.Println("-- stored procedures (defined once per VDAG):")
		fmt.Print(exec.ProcedureCatalog(tw.W))
		fmt.Println()
		fmt.Print(exec.Script(s))
		return nil
	}

	if o.journal != "" || o.retries > 0 {
		return journaledRun(ctx, tw, s, mode, plannerName, &jlog, o)
	}

	rep, err := exec.Execute(tw.W, s, exec.Options{Mode: mode, Workers: o.workers, Validate: true, Context: ctx})
	if err != nil {
		return windowErr(err)
	}
	sched := rep.Sched
	if mode != exec.ModeSequential {
		fmt.Printf("%s plan (%d stages, %d workers): %s\n", mode, sched.Levels, sched.Workers, exec.Parallelize(s, tw.W.Children))
	}
	if verbose {
		for _, step := range rep.Steps {
			detail := fmt.Sprintf("terms=%2d", step.Terms)
			if mode != exec.ModeSequential {
				detail = fmt.Sprintf("worker=%d", step.Worker)
			}
			fmt.Printf("  %-28s work=%8d %s %s%s\n",
				step.Expr, step.Work, detail, step.Elapsed.Round(time.Microsecond), cacheSuffix(step))
		}
	}
	if mode != exec.ModeSequential {
		fmt.Printf("update window: %s, total work %d, span work %d, critical path %d, speedup %.2f\n",
			rep.Elapsed.Round(time.Microsecond), sched.TotalWork, sched.SpanWork, sched.CriticalPathWork, sched.Speedup())
	} else {
		fmt.Printf("update window: %s\n", rep)
	}
	printSharedSummary(rep.Steps, rep.SharedBytesPeak)
	if o.explainSharing {
		printSharedObserved(rep.SharedDetail)
	}
	printSpillSummary(rep.Steps, rep.PeakReservedBytes)

	return verify(tw.W)
}

// verify checks the final state against full recomputation; a mismatch is a
// window failure (exit 3).
func verify(w *core.Warehouse) error {
	t0 := time.Now()
	if err := w.VerifyAll(); err != nil {
		return windowErr(fmt.Errorf("final state verification failed: %w", err))
	}
	fmt.Printf("verified against recomputation in %s\n", time.Since(t0).Round(time.Millisecond))
	return nil
}

// cacheSuffix renders a step's build-cache, shared-computation, spill and
// join-index accounting (empty when none of them touched the step).
func cacheSuffix(step exec.StepReport) string {
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

// printSharedSummary totals the window's cross-view sharing counters; silent
// when sharing never engaged.
func printSharedSummary(steps []exec.StepReport, peak int64) {
	var hits, misses int
	var saved int64
	for _, st := range steps {
		hits += st.SharedHits
		misses += st.SharedMisses
		saved += st.SharedTuplesSaved
	}
	if hits+misses == 0 {
		return
	}
	fmt.Printf("shared computation: %d/%d builds reused, %d operand tuples saved, peak %d bytes\n",
		hits, hits+misses, saved, peak)
}

// printSpillSummary totals the window's memory-budget spill counters; silent
// when nothing spilled.
func printSpillSummary(steps []exec.StepReport, peak int64) {
	var spills int
	var out, reread int64
	for _, st := range steps {
		spills += st.SpillCount
		out += st.SpilledBytes
		reread += st.SpillReReadBytes
	}
	if spills == 0 {
		return
	}
	fmt.Printf("memory budget: %d builds spilled, %d bytes out, %d bytes re-read, peak %d bytes resident\n",
		spills, out, reread, peak)
}

// budgetLabel renders the -share-budget-mb value for logging.
func budgetLabel(mb int64) string {
	if mb <= 0 {
		return "64MiB default"
	}
	return fmt.Sprintf("%dMiB", mb)
}

// sharingOpts builds the sharing-analysis parameters whupdate uses for both
// the joint planner and -explain-sharing: the configured byte budget and the
// warehouse's widths.
func sharingOpts(w *core.Warehouse, o options, stats cost.Stats) planner.SharingOptions {
	budget := o.shareBudgetMB << 20
	if budget <= 0 {
		budget = core.DefaultSharedBudgetBytes
	}
	return planner.SharingOptions{
		Stats:       stats,
		BudgetBytes: budget,
		Width:       exec.WidthOf(w),
	}
}

// printSharingElection renders the planned shared set: every candidate the
// election considered, its estimated size and savings, and whether the byte
// budget admitted it.
func printSharingElection(p planner.SharingPlan) {
	fmt.Printf("sharing election: %d shared operands, est saved %d tuples\n",
		p.SharedOperands, p.EstimatedSavedTuples)
	for _, e := range p.Elected {
		mark := "-"
		if e.Admitted {
			mark = "+"
		}
		fmt.Printf("  %s %-24s consumers=%d est_rows=%-8d est_bytes=%-10d est_saved=%d\n",
			mark, e.Name, e.Consumers, e.EstRows, e.EstBytes, e.EstSavedTuples)
	}
}

// printSharedObserved renders each build the window's cache held — requests,
// hits, built rows/bytes, and where it was when the window ended.
func printSharedObserved(detail []core.SharedEntryStats) {
	if len(detail) == 0 {
		return
	}
	fmt.Println("shared entries observed:")
	for _, d := range detail {
		fmt.Printf("  %-24s requests=%d hits=%d rows=%-8d bytes=%-10d fate=%s\n",
			d.Name, d.Requests, d.Hits, d.Rows, d.Bytes, d.Fate)
	}
}

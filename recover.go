package warehouse

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/faults"
	"repro/internal/journal"
	"repro/internal/recovery"
)

// FaultInjector delivers seeded faults at named injection points — the
// library's fault-injection harness, re-exported for experiments and tests
// that exercise the crash-recovery machinery. See NewFaultInjector.
type FaultInjector = faults.Injector

// NewFaultInjector creates a fault injector whose probabilistic rules draw
// from the given seed.
var NewFaultInjector = faults.New

// ModeRecompute labels windows completed by the recompute fallback
// (graceful degradation); it is not a schedulable execution mode.
const ModeRecompute = exec.ModeRecompute

// ErrRecoveryNeeded is returned by RunWindowOpts when the attached journal
// ends in an in-flight window: a previous process died mid-window, and
// Recover must complete it before new windows may run.
var ErrRecoveryNeeded = errors.New("warehouse: journal has an in-flight update window; recover it first")

// ErrWindowAborted is returned (wrapped) by RunWindowOpts when the window's
// deadline or context fired mid-execution. The window aborted cleanly: the
// serving epoch is unchanged, the journal (if any) carries an abort record,
// and no recovery is needed — the staged changes remain pending and the
// window can simply be re-run. Test with errors.Is.
var ErrWindowAborted = errors.New("warehouse: update window aborted by deadline or cancellation")

// Journal is an append-only, checksummed log of the changes a warehouse
// accepted and the update windows that installed them: each accepted change
// batch, what each window was about to do (strategy, the accepts it installs,
// pre-state digest), each completed step, and the final commit or abort. A
// window that begins but never closes is the on-disk signature of a crash,
// and carries everything needed to finish it (see Warehouse.Recover).
type Journal struct {
	w    *journal.Writer
	f    *os.File
	path string
	// committed counts the journal's committed windows: those it held when
	// opened plus those committed through this handle. The next window is
	// numbered committed+1. Atomic: a leader's stats read it while windows run.
	committed atomic.Int64
	// inflight is the window OpenJournal found begun and never closed — what
	// Recover completes; nil otherwise.
	inflight *journal.WindowLog
	// crashed marks that a window run through this handle died with a
	// crash-class fault, leaving the file in-flight. This handle never read
	// that window, so recovery must go through a fresh OpenJournal, which
	// reads the in-flight record back.
	crashed bool
	// spillSwept counts the stale per-window spill directories OpenJournal
	// removed — the leftovers of crashed windows, whose processes never
	// reached the commit-time cleanup.
	spillSwept int
}

// OpenJournal opens (creating if absent) a file-backed journal in append
// mode. Existing content is parsed first: Committed reports how many
// windows it already holds, NeedsRecovery whether it ends mid-window, and
// Pending which of its accepts no committed window installs. A torn final
// record — a crash during a journal write, or power lost before the unsynced
// records reached the disk whole — is treated as not written and cut off, so
// that what is appended next follows the last intact record. A journal whose
// begin records carry their change batches, written before accepted changes
// were records of their own, is refused with that reason.
func OpenJournal(path string) (*Journal, error) {
	var lg journal.Log
	f, err := journal.OpenAppend(path, lg.Feed)
	if err != nil {
		return nil, fmt.Errorf("warehouse: opening journal: %w", err)
	}
	j := resume(&lg, f)
	j.f, j.path = f, path
	j.spillSwept = recovery.SweepSpillDirs(path)
	return j, nil
}

// resume makes a journal that appends to out behind the records of lg.
func resume(lg *journal.Log, out io.Writer) *Journal {
	j := &Journal{w: lg.Writer(out)}
	j.committed.Store(int64(lg.CommittedCount()))
	if wl := lg.InFlight(); wl != nil {
		// A copy: a pointer into lg would keep every window's batch alive.
		inflight := *wl
		j.inflight = &inflight
	}
	return j
}

// SpillDirsSwept reports how many stale spill directories OpenJournal
// removed when this handle was opened.
func (j *Journal) SpillDirsSwept() int { return j.spillSwept }

// NewJournal wraps any writer as a window journal (no recovery state is
// read; the journal starts empty). Useful for buffers in tests.
func NewJournal(out io.Writer) *Journal { return resume(&journal.Log{}, out) }

// NeedsRecovery reports whether the journal ends in an in-flight window.
func (j *Journal) NeedsRecovery() bool { return j.crashed || j.inflight != nil }

// Committed returns the number of committed windows the journal held when
// opened, plus those committed through it since.
func (j *Journal) Committed() int { return int(j.committed.Load()) }

// Accept appends a change batch accepted from a stream as an accept record,
// numbered after the journal's last, for a window to name
// (WindowOptions.Accepts); it is durable once Sync(end) has returned.
func (j *Journal) Accept(a journal.AcceptRecord) (journal.AcceptRecord, int64, error) {
	return j.w.Accept(a)
}

// Sync returns once the journal is durable up to end, an offset Accept
// returned. Accepts waiting together share one flush.
func (j *Journal) Sync(end int64) error { return j.w.Sync(end) }

// Pending returns the journal's accepts that no committed window installs and
// that no window was written for: what a resuming ingester requeues.
func (j *Journal) Pending() journal.Accepts { return j.w.Pending() }

// Close waits for a journal flush still in flight and closes the underlying
// file, if any. It reports the first append or flush that failed through this
// handle — after which the tail of the journal is suspect, whatever the
// windows run since have returned — joined with the file's close error.
func (j *Journal) Close() error {
	err := j.w.Wait()
	if j.f != nil {
		err = errors.Join(err, j.f.Close())
	}
	return err
}

// WindowOptions configure an update window (RunWindowOpts). The zero value
// plans with MinWork and executes sequentially, unjournaled — the window
// RunWindow runs.
type WindowOptions struct {
	// Planner selects the planning algorithm (MinWorkPlanner when empty).
	Planner PlannerName
	// Mode schedules the strategy (sequential when empty).
	Mode Mode
	// Workers bounds the ModeDAG pool (0 = GOMAXPROCS).
	Workers int
	// Journal, when set, makes the window crash-safe: begin/step/commit
	// records frame the execution, and a process death leaves an in-flight
	// window for Recover.
	Journal *Journal
	// Timeout bounds the window's wall-clock time; cancellation propagates
	// through the DAG scheduler and the morsel pool. 0 means no limit.
	Timeout time.Duration
	// Context, when set, carries external cancellation (composes with
	// Timeout).
	Context context.Context
	// Faults injects failures for testing (point "step" at step boundaries,
	// "recompute" in the recompute fallback).
	Faults *FaultInjector
	// Accepts names the pending accept records (Journal.Accept) whose
	// changes the caller staged, as the continuous ingester does; the commit
	// record carries when the first was accepted, so freshness (commit minus
	// accept) is measurable from the journal alone. Zero, for an operator's
	// window, journals the staged batch as an accept of the window's own.
	Accepts journal.Range
}

// RunWindowOpts executes one update window — the only window path: plan the
// staged changes (StageDelta / StageDeltaCSV), validate, and execute under
// the chosen mode, journaled and bounded in time on request. Every window
// climbs the same failure ladder: a transient failure is retried in place
// twice (pausing 1 ms, then 2 ms), a staged or DAG window then runs once
// sequentially, and the last rung installs the base deltas and recomputes
// every derived view — always correct, never fast. A deadline or
// cancellation ends the window at once. The window runs on a copy-on-write
// clone and commits by an atomic epoch flip, so concurrent readers see
// exactly the pre- or post-window state, and a failed window — including a
// crash-class fault — leaves the serving epoch untouched. On a crash-class
// failure the journal is left in-flight for Recover.
func (w *Warehouse) RunWindowOpts(o WindowOptions) (_ WindowReport, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	defer func() {
		if err != nil {
			w.tallyMu.Lock()
			w.tally.Failed++
			w.tallyMu.Unlock()
		}
	}()
	if o.Journal != nil && o.Journal.NeedsRecovery() {
		return WindowReport{}, ErrRecoveryNeeded
	}
	plan, err := w.Plan(o.Planner)
	if err != nil {
		return WindowReport{}, err
	}
	ctx := o.Context
	if o.Timeout > 0 {
		if ctx == nil {
			ctx = context.Background()
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.Timeout)
		defer cancel()
	}
	ropts := recovery.Options{
		Planner:  string(plan.Planner),
		Mode:     o.Mode,
		Workers:  o.Workers,
		Context:  ctx,
		Validate: true,
		Faults:   o.Faults,
	}
	if o.Journal != nil {
		ropts.Journal = o.Journal.w
		ropts.Seq = o.Journal.Committed() + 1
		ropts.SpillDir = recovery.SpillDir(o.Journal.path, ropts.Seq)
		ropts.Accepts = o.Accepts
	}
	started := time.Now()
	res, err := recovery.Run(w.core, plan.Strategy, ropts)
	if err != nil {
		if o.Journal != nil && (faults.IsCrash(err) || o.Faults.Crashed()) {
			o.Journal.crashed = true
		}
		if exec.ContextErr(ctx) != nil {
			return WindowReport{}, fmt.Errorf("%w: %w", ErrWindowAborted, err)
		}
		return WindowReport{}, err
	}
	if o.Journal != nil {
		o.Journal.committed.Add(1)
	}
	return w.commit(res, WindowReport{Planner: plan.Planner, Plan: plan, Started: started}), nil
}

// commit is the adopt-and-count step every window path ends in — a local
// window (RunWindowOpts), a recovered one (Recover) and a replicated one
// (ApplyWindow): the completed clone becomes the serving epoch, and window —
// which arrives carrying what only its caller knows (planner, plan, start
// time) — is completed from the result, folded into the tally and kept as the
// last report, the only one kept. Callers hold w.mu.
func (w *Warehouse) commit(res *recovery.Result, window WindowReport) WindowReport {
	w.adopt(res.Core)
	// The report keeps its own copy of the scheduling metrics: a pointer into
	// res would keep res.Core — this epoch's private tables — reachable after
	// the epoch has retired.
	sched := res.Report.Sched
	window.Mode = res.Mode
	window.Parallel = &sched
	window.Report = res.Report
	window.StaleAfter = w.StaleViews()
	window.Attempts = res.Attempts
	window.FellBackSequential = res.FellBackSequential
	window.Recomputed = res.Recomputed
	window.Recovered = res.Recovered
	window.Replicated = res.Replayed
	w.tallyMu.Lock()
	defer w.tallyMu.Unlock()
	w.tally.add(window)
	window.Seq = int(w.tally.Committed)
	w.last = window
	return window
}

// Recover completes the journal's in-flight window. The warehouse must be
// in the pre-window state the journal's begin record describes — rebuilt
// from the same sources or restored from a snapshot taken before the window
// (the journaled state digest verifies this). The journaled change batch is
// re-staged, the journaled strategy re-executed; steps the crashed run
// completed are verified against their journaled work and delta digests,
// and the missing steps plus the commit are appended to the journal.
func (w *Warehouse) Recover(j *Journal) (WindowReport, error) {
	if j == nil {
		return WindowReport{}, errors.New("warehouse: Recover requires a journal")
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if j.crashed {
		return WindowReport{}, fmt.Errorf("warehouse: this journal handle saw a crash mid-window; reopen it with OpenJournal(%q) to load the in-flight window", j.path)
	}
	if j.inflight == nil {
		return WindowReport{}, errors.New("warehouse: journal has no in-flight window")
	}
	started := time.Now()
	begin := j.inflight.Begin
	res, err := recovery.Recover(w.core, &journal.Log{Windows: []journal.WindowLog{*j.inflight}}, recovery.Options{
		Journal:  j.w,
		SpillDir: recovery.SpillDir(j.path, begin.Seq),
	})
	if err != nil {
		return WindowReport{}, err
	}
	j.inflight = nil
	j.committed.Add(1)
	return w.commit(res, WindowReport{
		Planner:        PlannerName(begin.Planner),
		Plan:           Plan{Strategy: begin.Strategy, EstimatedWork: -1},
		Started:        started,
		SpillDirsSwept: j.spillSwept,
	}), nil
}

// Restore rebuilds warehouse state from this journal's file after a
// restart: every committed window is replayed in order (aborted windows are
// skipped, as their effects never reached the serving epoch), and a trailing
// in-flight window — the signature of a crash mid-window — is completed via
// Recover. The warehouse must be at the journal's initial state: the
// deterministic fixture whose digest the first window's begin record pins.
// The tally counts every window it replays.
func (w *Warehouse) Restore(j *Journal) error {
	if j == nil {
		return errors.New("warehouse: Restore requires a journal")
	}
	var lg journal.Log
	if j.path != "" {
		in, err := os.Open(j.path)
		if err != nil {
			return err
		}
		lg, err = journal.ReadLog(in)
		in.Close()
		if err != nil {
			return fmt.Errorf("warehouse: reading journal %s: %w", j.path, err)
		}
	}
	for i := range lg.Windows {
		wl := &lg.Windows[i]
		if !wl.Committed() {
			continue // aborted, or the in-flight tail Recover handles below
		}
		if _, err := w.ApplyWindow(wl); err != nil {
			return fmt.Errorf("warehouse: restoring window %d: %w", wl.Begin.Seq, err)
		}
	}
	if j.NeedsRecovery() {
		_, err := w.Recover(j)
		return err
	}
	return nil
}

package warehouse

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/core"
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

// ErrBadWindowOptions is returned (wrapped) by RunWindowOpts for options no
// window can run under: an unknown planner or mode, a negative worker count
// or timeout. Nothing ran and nothing is tallied. Test with errors.Is.
var ErrBadWindowOptions = errors.New("warehouse: bad window options")

// Journal is an append-only, checksummed log of the changes a warehouse
// accepted and the update windows that installed them: each accepted change
// batch, what each window was about to do (strategy, the accepts it installs,
// pre-state digest), and how it closed — a commit record carrying one record
// per step (its work, and the installed delta's digest), or an abort. A
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
}

// OpenJournal opens (creating if absent) a file-backed journal in append
// mode. Existing content is read first, as a stream folded record by record
// (journal.Fold): Committed reports how many windows it already holds,
// NeedsRecovery whether it ends mid-window, and Pending which of its accepts
// no committed window installs. The read holds those and the in-flight
// window, not the file or its closed windows, so a long journal reopens in
// memory its pending accepts and in-flight window take and one buffer of at
// most 1 MiB. A torn final record — a crash during a journal write, or power
// lost before the unsynced records reached the disk whole — is treated as
// not written and cut off, so that what is appended next follows the last
// intact record. What it read, and the cut, are flushed before it returns,
// so a window Recover completes is as recoverable as one RunWindowOpts
// returns. A journal whose begin records carry their change batches, written
// before accepted changes were records of their own, is refused with that
// reason.
func OpenJournal(path string) (*Journal, error) {
	var fold journal.Fold
	f, err := journal.OpenAppend(path, fold.Feed, fold.Detach)
	if err != nil {
		return nil, fmt.Errorf("warehouse: opening journal: %w", err)
	}
	j := resume(&fold, f)
	j.f, j.path = f, path
	return j, nil
}

// resume makes a journal that appends to out behind the records fold read:
// it keeps the in-flight window, the one window the fold hands out.
func resume(fold *journal.Fold, out io.Writer) *Journal {
	j := &Journal{w: fold.Writer(out), inflight: fold.InFlight()}
	j.committed.Store(int64(fold.CommittedCount()))
	return j
}

// NewJournal wraps any writer as a window journal (no recovery state is
// read; the journal starts empty). Useful for buffers in tests.
func NewJournal(out io.Writer) *Journal { return resume(&journal.Fold{}, out) }

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
// returned; math.MaxInt64 flushes every record appended, the commit record
// of the last window returned included. Accepts waiting together share one
// flush.
func (j *Journal) Sync(end int64) error { return j.w.Sync(end) }

// Pending returns the journal's accepts that no committed window installs and
// that no window was written for: what a resuming ingester requeues.
func (j *Journal) Pending() journal.Accepts { return j.w.Pending() }

// Close flushes every record appended — a window's commit record rides the
// next flush, and this may be the last — and closes the underlying file, if
// any. It reports the first append or flush that failed through this handle
// — after which the tail of the journal is suspect, whatever the windows run
// since have returned — joined with the file's close error.
func (j *Journal) Close() error {
	err := j.w.Sync(math.MaxInt64)
	if j.f != nil {
		err = errors.Join(err, j.f.Close())
	}
	return err
}

// WindowOptions configure an update window (RunWindowOpts). The zero value
// plans with MinWork and executes sequentially, unjournaled. A window always
// runs the strategy its planner makes; Validate, Explain, EstimateWork and
// Script take any strategy.
type WindowOptions struct {
	// Planner selects the planning algorithm (MinWorkPlanner when empty).
	Planner PlannerName
	// Mode schedules the strategy (sequential when empty).
	Mode Mode
	// Workers bounds the ModeDAG pool (0 = GOMAXPROCS; negative is refused).
	Workers int
	// Journal, when set, makes the window crash-safe: a begin record and a
	// commit record (which carries the step records) frame the execution,
	// and a process death or a power loss leaves an in-flight window for
	// Recover.
	Journal *Journal
	// Timeout bounds the window's wall-clock time; cancellation propagates
	// through the DAG scheduler and stops a Comp before its next term. 0
	// means no limit; negative is refused.
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
//
// A journaled window returns once it is recoverable: its begin record, which
// holds its batch's accepts, its strategy and its pre-state digest, is
// durable, and its commit record is appended but not flushed — the journal's
// next flush (the next window's begin record, an abort, an accept's Sync,
// Journal.Close) makes it durable. After a power loss in between, Restore or
// Recover finds the window in flight and completes it to the state it
// returned, with the same digests. An aborted window returns only once its
// abort record is durable, so its batch may be staged again.
func (w *Warehouse) RunWindowOpts(o WindowOptions) (_ WindowReport, err error) {
	planner, err := ParsePlanner(string(o.Planner))
	if err != nil {
		return WindowReport{}, fmt.Errorf("%w: %w", ErrBadWindowOptions, err)
	}
	mode, err := ParseMode(string(o.Mode))
	if err != nil {
		return WindowReport{}, fmt.Errorf("%w: %w", ErrBadWindowOptions, err)
	}
	if o.Workers < 0 {
		return WindowReport{}, fmt.Errorf("%w: %d workers", ErrBadWindowOptions, o.Workers)
	}
	if o.Timeout < 0 {
		return WindowReport{}, fmt.Errorf("%w: timeout %s", ErrBadWindowOptions, o.Timeout)
	}
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
	plan, err := w.plan(planner)
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
		Mode:     mode,
		Workers:  o.Workers,
		Context:  ctx,
		Validate: true,
		Faults:   o.Faults,
	}
	if o.Journal != nil {
		ropts.Journal = o.Journal.w
		ropts.Seq = o.Journal.Committed() + 1
		ropts.Accepts = o.Accepts
	}
	started := time.Now()
	res, err := recovery.Run(w.core, plan.Strategy, ropts)
	if err != nil {
		if o.Journal != nil && (faults.IsCrash(err) || o.Faults.Crashed()) {
			o.Journal.crashed = true
		}
		if core.ContextErr(ctx) != nil {
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
// time) — is completed from the result and folded into the tally. Callers
// hold w.mu.
func (w *Warehouse) commit(res *recovery.Result, window WindowReport) WindowReport {
	w.adopt(res.Core)
	// The report keeps its own copy of the scheduling metrics: a pointer into
	// res would keep res.Core — this epoch's private tables — reachable after
	// the epoch has retired.
	sched := res.Report.Sched
	window.Mode = res.Mode
	window.Parallel = &sched
	window.Report = res.Report
	window.Attempts = res.Attempts
	window.FellBackSequential = res.FellBackSequential
	window.Recomputed = res.Recomputed
	window.Recovered = res.Recovered
	window.Replicated = res.Replayed
	w.tallyMu.Lock()
	defer w.tallyMu.Unlock()
	w.tally.add(window)
	window.Seq = int(w.tally.Committed)
	return window
}

// Recover completes the journal's in-flight window. The warehouse must be
// in the pre-window state the journal's begin record describes — rebuilt
// from the same sources or restored from a snapshot taken before the window
// (the journaled state digest verifies this). The journaled change batch is
// re-staged and the journaled strategy re-executed in full, and the commit
// record, with its steps, is appended to the journal.
func (w *Warehouse) Recover(j *Journal) (WindowReport, error) {
	if j == nil {
		return WindowReport{}, errors.New("warehouse: Recover requires a journal")
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.recover(j)
}

// recover is Recover for a caller that holds w.mu.
func (w *Warehouse) recover(j *Journal) (WindowReport, error) {
	if j.crashed {
		return WindowReport{}, fmt.Errorf("warehouse: this journal handle saw a crash mid-window; reopen it with OpenJournal(%q) to load the in-flight window", j.path)
	}
	if j.inflight == nil {
		return WindowReport{}, errors.New("warehouse: journal has no in-flight window")
	}
	started := time.Now()
	begin := j.inflight.Begin
	res, err := recovery.Recover(w.core, j.inflight, recovery.Options{Journal: j.w})
	if err != nil {
		return WindowReport{}, err
	}
	j.inflight = nil
	j.committed.Add(1)
	return w.commit(res, WindowReport{
		Planner: PlannerName(begin.Planner),
		Plan:    Plan{Strategy: begin.Strategy, EstimatedWork: -1},
		Started: started,
	}), nil
}

// Restore rebuilds warehouse state from this journal's file after a
// restart: every committed window is replayed in order (aborted windows are
// skipped, as their effects never reached the serving epoch), and a trailing
// in-flight window — the signature of a crash mid-window — is completed via
// Recover, all under one hold of the facade mutex, so nothing is staged
// between them. The warehouse must be at the journal's initial state: the
// deterministic fixture whose digest the first window's begin record pins.
// The tally counts every window it replays.
//
// The file is read twice, as a stream each time (journal.Fold): a first
// read holds nothing and finds any record that does not decode, so that a
// corrupt journal changes no state; the second applies each committed
// window as the read closes it, so no more than one window's batch is held.
func (w *Warehouse) Restore(j *Journal) error {
	if j == nil {
		return errors.New("warehouse: Restore requires a journal")
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if j.path != "" {
		if err := readJournal(j.path, nil); err != nil {
			return fmt.Errorf("warehouse: reading journal %s: %w", j.path, err)
		}
		err := readJournal(j.path, func(wl *journal.WindowLog) error {
			if !wl.Committed() {
				return nil // aborted or abandoned; the in-flight tail Recover handles below
			}
			if _, err := w.applyWindow(wl); err != nil {
				return fmt.Errorf("warehouse: restoring window %d: %w", wl.Begin.Seq, err)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	if j.NeedsRecovery() {
		_, err := w.recover(j)
		return err
	}
	return nil
}

// readJournal folds the journal file at path, handing onClose each window
// the read closes (journal.Fold.OnClose).
func readJournal(path string, onClose func(*journal.WindowLog) error) error {
	in, err := os.Open(path)
	if err != nil {
		return err
	}
	defer in.Close()
	fold := journal.Fold{OnClose: onClose}
	return fold.Read(in)
}

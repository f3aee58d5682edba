// Package recovery makes update windows crash-safe. Run executes a strategy
// as a journaled, atomic, retryable window: every attempt runs on a clone of
// the warehouse, so the caller's state is untouched until the attempt
// commits, and the journal records window begin (strategy, the accepts that
// hold its change batch, digests) and commit — which holds a record of every
// step — or abort. Recover completes a window whose journal ends without
// commit or abort — the signature of a crash — by restoring the pre-window
// state, re-staging the batch its accepts hold, and re-executing the
// journaled strategy.
//
// What Recover may find is set by what the journal syncs (package journal):
// a window that Run returned has its begin record — strategy, pre-state
// digest, and the accepts that hold its batch, written before it — durable,
// since its commit record waits for that flush, and its commit record rides
// the journal's next flush. A power loss in between finds the window in
// flight, and Recover completes it to the state Run returned. A window in
// flight has its begin record once its flush has returned. Power lost before
// that leaves no begin record or a torn one, which the next open cuts off
// with whatever follows it: no window, and nothing to undo, because an
// attempt writes only its clone and journal frames. Every step of a window
// in flight is re-executed, so power loss costs redone steps and never a
// different state. An aborted attempt returns only once its abort record is
// durable, so a window reported failed is never recovered. Every way out of
// an attempt — commit, abort, crash-class return — waits for the begin
// record's flush, so the caller of Run or Recover gets back a journal nothing
// is still writing to.
//
// Replay is by re-execution: the engine is deterministic given the same
// pre-window state, change batch and work-affecting options (which the
// begin record captures), so a recovered window is bag-identical to the
// window the crashed process would have produced. A committed window's step
// records — its work and installed-delta digests — are checked against the
// replay, turning silent divergence into a hard error.
//
// Run also hardens every window against non-crash failures, by one ladder no
// caller configures: a transient error is retried in place (each attempt its
// own journal window, same sequence number), a staged or DAG window then gets
// one sequential attempt, and the last rung installs the base deltas and
// recomputes every derived view from scratch.
package recovery

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/faults"
	"repro/internal/journal"
	"repro/internal/strategy"
)

// Options configure Run and Recover.
type Options struct {
	// Journal receives the window's records; nil runs unjournaled (the
	// window still climbs the ladder atomically, it is just not recoverable).
	Journal *journal.Writer
	// Seq is the window's sequence number, recorded in the begin record.
	Seq int
	// Planner names the strategy's planner, recorded in the begin record.
	Planner string
	// Mode schedules the strategy (sequential, staged, dag); empty means
	// sequential.
	Mode exec.Mode
	// Workers bounds DAG-mode parallelism; 0 means GOMAXPROCS.
	Workers int
	// Context cancels the window between steps; nil never cancels.
	Context context.Context
	// Validate checks the strategy against the correctness conditions
	// before each attempt.
	Validate bool
	// Faults, when non-nil, is consulted at step boundaries and at the
	// recompute fallback (points "step" and "recompute").
	Faults *faults.Injector
	// Accepts names the journal's accept records whose changes the caller
	// staged; zero journals the staged batch as an accept of the window's own
	// before each attempt's begin record (journal.BeginRecord.Own).
	Accepts journal.Range
}

// The ladder's first rung: a transiently failed attempt (faults.IsTransient)
// is re-run in place up to maxRetries times, after a pause of firstPause
// that doubles for each retry and ends early if the window's context does.
const (
	maxRetries = 2
	firstPause = time.Millisecond
)

// Result is a completed window: Core is the successor warehouse state (the
// attempt's clone — the caller adopts it), Report the execution measurements.
type Result struct {
	Core   *core.Warehouse
	Report exec.Report
	// Mode is how the committed attempt actually ran — it differs from
	// Options.Mode after degradation.
	Mode exec.Mode
	// Attempts counts executed attempts, including fallbacks.
	Attempts int
	// FellBackSequential and Recomputed record which degradations fired.
	FellBackSequential bool
	Recomputed         bool
	// Recovered marks results produced by Recover.
	Recovered bool
	// Replayed marks results produced by Replay (a shipped window applied on
	// a replica).
	Replayed bool
}

// isCrash classifies an attempt failure as a simulated process crash: the
// error chain carries a crash-flavoured fault, or the injector fired one
// anywhere (under DAG concurrency the first-in-strategy-order error the
// scheduler surfaces may be a knock-on failure, not the crash itself).
func isCrash(err error, inj *faults.Injector) bool {
	return faults.IsCrash(err) || inj.Crashed()
}

// Run executes the strategy as a robust update window against w. w itself is
// never mutated: each attempt executes on a clone, and the committed clone
// is returned in Result.Core for the caller to adopt. A journaled window
// returns once it is recoverable — its begin record durable, its commit
// record appended and left for the journal's next flush — so it waits for
// the disk once, for the flush its steps ran beside. A failed attempt
// decides the next by what it observes:
//
//   - a crash-class failure returns at once with the journal left in flight —
//     exactly the state a killed process leaves behind — for Recover;
//   - a blown deadline or a cancellation returns (the attempt journaled its
//     abort);
//   - a transient error is retried in place, up to maxRetries times;
//   - a staged or DAG window then gets one sequential attempt;
//   - and the last rung recomputes every derived view (ModeRecompute).
func Run(w *core.Warehouse, s strategy.Strategy, opts Options) (*Result, error) {
	// An unknown mode is the caller's mistake: no rung would mend it.
	mode, err := exec.ParseMode(string(opts.Mode))
	if err != nil {
		return nil, err
	}
	if opts.Journal != nil && opts.Context != nil {
		// Gate the journal's begin — and a begin's own accept — on the
		// window's context: a cancelled window opens no journal window
		// (commit/abort still land, closing the window's record).
		opts.Journal.SetContext(opts.Context)
		defer opts.Journal.SetContext(nil)
	}
	res := &Result{}
	retries, wait := 0, firstPause
	for {
		res.Attempts++
		rep, clone, err := runAttempt(w, s, mode, opts)
		if err == nil {
			res.Core, res.Report, res.Mode = clone, rep, mode
			return res, nil
		}
		if isCrash(err, opts.Faults) {
			return nil, err
		}
		if core.ContextErr(opts.Context) != nil {
			// Deadline or cancellation: the attempt already journaled its
			// abort; another rung would just re-run a dead window.
			return nil, err
		}
		if faults.IsTransient(err) && retries < maxRetries {
			retries++
			if pause(opts.Context, wait) != nil {
				return nil, err // the window died in the pause
			}
			wait *= 2
			continue
		}
		if mode != exec.ModeSequential && !res.FellBackSequential {
			mode = exec.ModeSequential
			res.FellBackSequential = true
			continue
		}
		res.Attempts++
		rep, clone, rerr := runAttempt(w, s, exec.ModeRecompute, opts)
		if rerr == nil {
			res.Recomputed = true
			res.Core, res.Report, res.Mode = clone, rep, exec.ModeRecompute
			return res, nil
		}
		if isCrash(rerr, opts.Faults) {
			return nil, rerr
		}
		return nil, fmt.Errorf("recovery: recompute fallback failed: %w (incremental window failed: %v)", rerr, err)
	}
}

// pause waits d, or until ctx is done (nil never is), and returns ctx's error
// then.
func pause(ctx context.Context, d time.Duration) error {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-done:
		return ctx.Err()
	}
}

// beginRecord captures everything recovery needs to re-execute the window:
// the strategy, the accepts that hold its change batch — the batch itself,
// journaled as the window's own accept, when the caller names none — digests
// of the pre-window state and batch, and the work-affecting engine options.
// The batch is collected and digested in one pass over the staged deltas,
// and only digested when the caller's accepts hold it. The record is for
// journal.Writer.Begin, which encodes it at once: it shares s and the
// staged rows' keys.
func beginRecord(w *core.Warehouse, s strategy.Strategy, mode exec.Mode, opts Options) (journal.BeginRecord, error) {
	own := opts.Accepts == journal.Range{}
	batch, digest, err := stagedBatch(w, own)
	if err != nil {
		return journal.BeginRecord{}, err
	}
	o := w.Options()
	return journal.BeginRecord{
		Seq:             opts.Seq,
		Planner:         opts.Planner,
		Mode:            string(mode),
		Workers:         opts.Workers,
		SkipEmptyDeltas: o.SkipEmptyDeltas,
		StateDigest:     StateDigest(w),
		BatchDigest:     digest,
		Strategy:        s,
		Accepts:         opts.Accepts,
		Own:             own,
		Batch:           batch,
	}, nil
}

// Begin journals what a window writes before its first step through
// opts.Journal: its begin record (beginRecord), behind the accept of the
// staged batch when opts names no accepts. It starts the records' flush and
// does not wait for it (journal.Writer.Begin).
func Begin(w *core.Warehouse, s strategy.Strategy, mode exec.Mode, opts Options) error {
	b, err := beginRecord(w, s, mode, opts)
	if err != nil {
		return err
	}
	return opts.Journal.Begin(b)
}

// commitRecord is the commit record of an executed window: its work, how
// long it ran from t0, and a record of every step rep holds — in strategy
// order, since the window ran every one.
func commitRecord(rep exec.Report, t0 time.Time) journal.CommitRecord {
	c := journal.CommitRecord{TotalWork: rep.TotalWork(), ElapsedNS: time.Since(t0).Nanoseconds(), UnixNano: time.Now().UnixNano(),
		Steps: make([]journal.StepRecord, len(rep.Steps))}
	for i, step := range rep.Steps {
		c.Steps[i] = journal.StepRecord{Key: step.Expr.Key(), Work: step.Work, Terms: step.Terms, Skipped: step.Skipped, Digest: step.Digest}
	}
	return c
}

// runAttempt executes one journaled attempt on a fresh clone: the strategy
// under mode, or — for ModeRecompute, the graceful-degradation attempt — an
// install of the staged base deltas and a rebuild of every derived view,
// whose commit record holds no step records (recovery of an in-flight
// recompute window simply redoes the whole recompute). Failures append an
// abort record — unless they are crash-class, in which case the journal is
// left exactly as a killed process would leave it.
func runAttempt(w *core.Warehouse, s strategy.Strategy, mode exec.Mode, opts Options) (exec.Report, *core.Warehouse, error) {
	clone := w.Clone()
	jw := opts.Journal
	if jw != nil {
		// Begin starts the record's flush and does not wait for it: the steps
		// below write nothing but the clone.
		if err := Begin(w, s, mode, opts); err != nil {
			return exec.Report{}, nil, err
		}
	}
	t0 := time.Now()
	rep, err := execute(clone, s, mode, opts)
	if err != nil {
		closeFailed(jw, err.Error(), isCrash(err, opts.Faults))
		return rep, nil, err
	}
	if jw != nil {
		if cerr := jw.Commit(commitRecord(rep, t0)); cerr != nil {
			return rep, nil, cerr
		}
	}
	return rep, clone, nil
}

// closeFailed ends the journal window of a failed attempt: an abort record
// or — after a crash-class failure, which leaves the window in flight as a
// killed process would — only the wait for the begin record's flush that the
// abort would have made.
func closeFailed(jw *journal.Writer, reason string, crash bool) {
	switch {
	case jw == nil:
	case crash:
		_ = jw.Wait() // the failure being returned is the crash
	default:
		_ = jw.Abort(journal.AbortRecord{Reason: reason})
	}
}

// execute runs a window's strategy on w — through the executor, or through
// recomputeAll for ModeRecompute, whose report carries the installed base
// rows as its only work.
func execute(w *core.Warehouse, s strategy.Strategy, mode exec.Mode, opts Options) (exec.Report, error) {
	if mode != exec.ModeRecompute {
		return exec.Execute(w, s, exec.Options{
			Mode:     mode,
			Workers:  opts.Workers,
			Context:  opts.Context,
			Validate: opts.Validate,
			Faults:   opts.Faults,
		})
	}
	t0 := time.Now()
	work, err := recomputeAll(w, opts.Faults)
	if err != nil {
		return exec.Report{}, err
	}
	rep := exec.Report{Strategy: s, InstWork: work, Elapsed: time.Since(t0)}
	rep.Sched = exec.Schedule{Mode: exec.ModeRecompute, Workers: 1, TotalWork: work, Elapsed: rep.Elapsed}
	return rep, nil
}

// recomputeAll installs every pending base delta and refreshes every derived
// view from the new base data. Work counts the installed rows (the refresh
// work is recomputation, outside the incremental work metric).
func recomputeAll(w *core.Warehouse, inj *faults.Injector) (int64, error) {
	if err := inj.Hit("recompute"); err != nil {
		return 0, err
	}
	var work int64
	for _, name := range w.ViewNames() {
		v := w.View(name)
		if v.IsBase() && v.HasPending() {
			n, _, err := w.Install(name)
			if err != nil {
				return work, err
			}
			work += n
		}
	}
	if err := w.RefreshAll(); err != nil {
		return work, err
	}
	return work, nil
}

// replay re-executes one journaled window against w and is everything
// Recover and Replay do: w must be at the window's pre-state (the begin
// record's state digest verifies this, the batch digest that the change
// batch is intact), the journaled change batch is re-staged on a clone, and
// the journaled strategy re-executed under the journaled work-affecting
// options. What happens then depends on the log:
//
//   - A committed window (a shipped window on a replica) is verified against
//     its commit record — total work, and every step's key, work, skip flag
//     and installed-delta digest — turning silent divergence into a hard
//     error, and nothing is journaled: the shipped bytes are the replica's
//     journal.
//   - An in-flight window (a crash) gets its commit record appended through
//     opts.Journal, or an abort if the replay fails.
//
// The completed clone comes back in Result.Core for the caller to adopt.
func replay(w *core.Warehouse, wl *journal.WindowLog, opts Options) (*Result, error) {
	b := wl.Begin
	committed := wl.Committed()
	jw := opts.Journal
	if committed {
		jw = nil
	}
	if got := StateDigest(w); b.StateDigest != 0 && got != b.StateDigest {
		return nil, fmt.Errorf("recovery: state digest %016x does not match window %d's journaled pre-state %016x — wrong snapshot, or a replica that diverged or skipped a window",
			got, b.Seq, b.StateDigest)
	}
	if got := journal.BatchDigest(b.Batch); got != b.BatchDigest {
		return nil, fmt.Errorf("recovery: window %d's change batch digests to %016x, journaled %016x — corrupt begin record",
			b.Seq, got, b.BatchDigest)
	}
	if b.ProbeWork {
		return nil, fmt.Errorf("recovery: window %d was journaled by an engine whose Work figures count index probes, not operand tuples; this engine reports the linear metric only and cannot verify its steps",
			b.Seq)
	}
	clone := w.Clone()
	co := clone.Options()
	co.SkipEmptyDeltas = b.SkipEmptyDeltas
	clone.SetOptions(co)
	if err := RestoreBatch(clone, b.Batch); err != nil {
		return nil, fmt.Errorf("recovery: re-staging window %d's batch: %w", b.Seq, err)
	}

	mode := exec.Mode(b.Mode)
	if mode != exec.ModeRecompute {
		var err error
		if mode, err = exec.ParseMode(b.Mode); err != nil {
			return nil, fmt.Errorf("recovery: window %d: %w", b.Seq, err)
		}
	}
	if opts.Workers == 0 {
		opts.Workers = b.Workers
	}
	t0 := time.Now()
	rep, err := execute(clone, b.Strategy, mode, opts)
	if err != nil {
		closeFailed(jw, "recovery failed: "+err.Error(), isCrash(err, opts.Faults))
		return nil, fmt.Errorf("recovery: replaying window %d: %w", b.Seq, err)
	}
	c := commitRecord(rep, t0)
	if committed {
		if err := verifyCommit(b.Seq, wl.Commit, c); err != nil {
			return nil, err
		}
	}
	if jw != nil {
		if cerr := jw.Commit(c); cerr != nil {
			return nil, cerr
		}
	}
	return &Result{Core: clone, Report: rep, Mode: mode, Attempts: 1, Recomputed: mode == exec.ModeRecompute}, nil
}

// verifyCommit checks the commit record a replay of window seq made, got,
// against the one the window was journaled with: the same total work and the
// same steps, key, work and skip flag each, and the same installed-delta
// digest where both digested the delta.
func verifyCommit(seq int, journaled *journal.CommitRecord, got journal.CommitRecord) error {
	if len(journaled.Steps) != len(got.Steps) {
		return fmt.Errorf("recovery: committed window %d ships %d step records, its replay ran %d steps",
			seq, len(journaled.Steps), len(got.Steps))
	}
	for i, sr := range journaled.Steps {
		step := got.Steps[i]
		if sr.Key != step.Key {
			return fmt.Errorf("recovery: window %d step %d is journaled as %s, replayed as %s", seq, i, sr.Key, step.Key)
		}
		if sr.Skipped != step.Skipped || sr.Work != step.Work {
			return fmt.Errorf("recovery: replay diverged at window %d step %d (%s): journaled work=%d skipped=%v, replayed work=%d skipped=%v",
				seq, i, sr.Key, sr.Work, sr.Skipped, step.Work, step.Skipped)
		}
		if sr.Digest != 0 && step.Digest != 0 && sr.Digest != step.Digest {
			return fmt.Errorf("recovery: replay diverged at window %d step %d (%s): journaled delta digest %016x, replayed %016x",
				seq, i, sr.Key, sr.Digest, step.Digest)
		}
	}
	if got.TotalWork != journaled.TotalWork {
		return fmt.Errorf("recovery: window %d replayed %d total work, leader committed %d", seq, got.TotalWork, journaled.TotalWork)
	}
	return nil
}

// Replay re-executes one committed journaled window against w — the
// follower's half of journal shipping: the leader already committed it, so
// its commit record holds every step and the replica's re-execution is pure
// verification (see replay).
func Replay(w *core.Warehouse, wl *journal.WindowLog, opts Options) (*Result, error) {
	if wl == nil || !wl.Committed() {
		return nil, errors.New("recovery: replay requires a committed window")
	}
	res, err := replay(w, wl, opts)
	if err != nil {
		return nil, err
	}
	res.Replayed = true
	return res, nil
}

// Recover completes a journal's in-flight window, wl — one that begins but
// never commits or aborts, the signature of a crash. w must be the warehouse
// restored from the pre-window snapshot. Every step is re-executed, and the
// commit record, with its steps, is appended through opts.Journal (see
// replay).
func Recover(w *core.Warehouse, wl *journal.WindowLog, opts Options) (*Result, error) {
	if wl == nil || wl.Closed() {
		return nil, errors.New("recovery: journal has no in-flight window")
	}
	res, err := replay(w, wl, opts)
	if err != nil {
		return nil, err
	}
	res.Recovered = true
	return res, nil
}

package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/journal"
	"repro/internal/recovery"
	"repro/internal/snapshot"
	"repro/internal/strategy"
	"repro/internal/tpcd"
)

// readJournalFile parses an existing journal file; a missing file is an
// empty journal. A torn final record (crash during a journal write) is
// tolerated by ReadLog and treated as not written.
func readJournalFile(path string) (journal.Log, error) {
	in, err := os.Open(path)
	if os.IsNotExist(err) {
		return journal.Log{}, nil
	}
	if err != nil {
		return journal.Log{}, err
	}
	defer in.Close()
	lg, err := journal.ReadLog(in)
	if err != nil {
		return journal.Log{}, fmt.Errorf("reading journal %s: %w", path, err)
	}
	return lg, nil
}

// appendWriter opens the journal file, as lg read it, for appending new
// records after its last intact one: a torn tail is cut off first, or it
// would hide what follows it from the next reader.
func appendWriter(path string, lg journal.Log) (*journal.Writer, *os.File, error) {
	f, err := journal.OpenAppend(path, lg)
	if err != nil {
		return nil, nil, err
	}
	return journal.NewWriter(f), f, nil
}

// sweepSpill removes the spill leftovers of crashed runs before a new or
// resumed window executes, and says so when there were any.
func sweepSpill(journalPath string) {
	if n := recovery.SweepSpillDirs(journalPath); n > 0 {
		fmt.Printf("swept %d stale spill directories left by crashed windows\n", n)
	}
}

// checkpointPath names the pre-window checkpoint written next to the
// journal. Resume restores it instead of trusting a rebuild to be
// bit-identical: regeneration from -sf/-seed reproduces every row, but
// float aggregates accumulate in hash order, so their digests drift
// between runs.
func checkpointPath(journalPath string) string { return journalPath + ".snap" }

// writeCheckpoint snapshots the installed (pre-window) state atomically
// (temp file + rename). It must run before staging — the snapshot format
// holds installed views only; the journal's begin record carries the batch.
// The write observes ctx: an interrupt mid-checkpoint abandons the temp
// file, and because the rename is the commit point, a cancelled (half-
// written) checkpoint can never be adopted as <journal>.snap.
func writeCheckpoint(ctx context.Context, w *core.Warehouse, journalPath string) error {
	path := checkpointPath(journalPath)
	tmp, err := os.CreateTemp(filepath.Dir(path), ".snap-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := snapshot.WriteContext(ctx, w, tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("writing checkpoint %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// journaledRun executes the window through the recovery runner: journaled
// (when -journal is set), with transient retries (-retries), on a clone
// that is adopted only on success.
func journaledRun(ctx context.Context, tw *tpcd.Warehouse, s strategy.Strategy, mode exec.Mode, plannerName string, lg *journal.Log, o options) error {
	ropts := recovery.Options{
		Planner:  plannerName,
		Mode:     mode,
		Workers:  o.workers,
		Context:  ctx,
		Validate: true,
		Retries:  o.retries,
	}
	if o.journal != "" {
		sweepSpill(o.journal)
		jw, f, err := appendWriter(o.journal, *lg)
		if err != nil {
			return err
		}
		defer f.Close()
		ropts.Journal = jw
		ropts.Seq = lg.CommittedCount() + 1
		ropts.SpillDir = recovery.SpillDir(o.journal, ropts.Seq)
	}
	res, err := recovery.Run(tw.W, s, ropts)
	if err != nil {
		if o.journal != "" {
			if ctx.Err() != nil {
				// Interrupt or deadline: the attempt appended an abort
				// record, so the journal is consistent — no resume needed.
				fmt.Fprintf(os.Stderr, "whupdate: window aborted (%v); journal %s is consistent, staged batch not applied\n", ctx.Err(), o.journal)
			} else {
				fmt.Fprintf(os.Stderr, "whupdate: journal %s may hold an in-flight window; a rerun with -resume will complete it\n", o.journal)
			}
		}
		return windowErr(err)
	}
	tw.W = res.Core
	printWindow(res, o)
	return verify(tw.W)
}

// resumeWindow completes the journal's in-flight window: the pre-window
// checkpoint (written next to the journal) is restored over the rebuilt
// warehouse, the journaled state digest verifies the restore, the journaled
// batch is re-staged, and the journaled strategy re-executed — skipping
// steps the crashed run already completed.
func resumeWindow(ctx context.Context, tw *tpcd.Warehouse, lg *journal.Log, o options) error {
	snap, err := os.Open(checkpointPath(o.journal))
	if err != nil {
		return recoveryErr(fmt.Errorf("resume needs the pre-window checkpoint: %w", err))
	}
	err = snapshot.Read(tw.W, snap)
	snap.Close()
	if err != nil {
		return recoveryErr(fmt.Errorf("restoring checkpoint %s: %w", checkpointPath(o.journal), err))
	}
	fmt.Printf("restored pre-window checkpoint %s\n", checkpointPath(o.journal))
	sweepSpill(o.journal)
	jw, f, err := appendWriter(o.journal, *lg)
	if err != nil {
		return err
	}
	defer f.Close()
	res, err := recovery.Recover(tw.W, lg, recovery.Options{
		Journal:  jw,
		Context:  ctx,
		Validate: true,
		SpillDir: recovery.SpillDir(o.journal, lg.InFlight().Begin.Seq),
	})
	if err != nil {
		return recoveryErr(fmt.Errorf("resuming journal %s: %w", o.journal, err))
	}
	tw.W = res.Core
	begin := lg.InFlight().Begin
	fmt.Printf("resumed in-flight window %d (%s, %s): strategy %s\n", begin.Seq, begin.Planner, res.Mode, begin.Strategy)
	printWindow(res, o)
	return verify(tw.W)
}

// printWindow reports a recovery-runner window in the same shape the
// direct execution paths use.
func printWindow(res *recovery.Result, o options) {
	rep := res.Report
	if o.verbose {
		for _, step := range rep.Steps {
			fmt.Printf("  %-28s work=%8d worker=%d %s%s\n",
				step.Expr, step.Work, step.Worker, step.Elapsed.Round(time.Microsecond),
				cacheSuffix(step))
		}
	}
	var note string
	switch {
	case res.Recomputed:
		note = ", degraded to recompute"
	case res.FellBackSequential:
		note = ", degraded to sequential"
	}
	if res.Attempts > 1 {
		note += fmt.Sprintf(", %d attempts", res.Attempts)
	}
	fmt.Printf("update window (%s%s): %s, total work %d, span work %d, critical path %d, speedup %.2f\n",
		res.Mode, note, rep.Elapsed.Round(time.Microsecond),
		rep.Sched.TotalWork, rep.Sched.SpanWork, rep.Sched.CriticalPathWork, rep.Sched.Speedup())
	printSpillSummary(rep.Steps, rep.PeakReservedBytes)
}

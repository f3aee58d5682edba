package warehouse

// Replication support on the facade. A replica set is leader plus followers:
// the leader runs journaled update windows and ships the journal bytes; each
// follower feeds the shipped windows into ApplyWindow, which re-executes them
// against its own state with internal/recovery's digest checks, then flips
// its epoch exactly as a local commit would. internal/replicate builds the
// transport on top of these hooks; they are exported so tests and embedders
// can replicate over any byte channel.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/journal"
	"repro/internal/recovery"
)

// WindowLog is one parsed journal window — the unit journal shipping
// delivers to ApplyWindow.
type WindowLog = journal.WindowLog

// ApplyWindow replays one committed, shipped update window against the
// warehouse — the follower's half of replication. The window is re-executed
// step by step on a clone under the journaled engine options; the begin
// record's state digest proves this replica is at the epoch the leader ran
// the window from, and every step's work, skip flag, and installed-delta
// digest must match the leader's records. Only after full verification does
// the epoch flip (atomically, as in RunWindowOpts), so readers pinned to the
// previous epoch are never exposed to a half-applied or divergent window. On
// any error the warehouse is unchanged.
func (w *Warehouse) ApplyWindow(wl *WindowLog) (WindowReport, error) {
	if wl == nil || !wl.Committed() {
		return WindowReport{}, errors.New("warehouse: ApplyWindow requires a committed window")
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.applyWindow(wl)
}

// applyWindow is ApplyWindow for a caller that holds w.mu.
func (w *Warehouse) applyWindow(wl *WindowLog) (WindowReport, error) {
	started := time.Now()
	res, err := recovery.Replay(w.core, wl, recovery.Options{})
	if err != nil {
		return WindowReport{}, err
	}
	return w.commit(res, WindowReport{
		Planner: PlannerName(wl.Begin.Planner),
		Plan:    Plan{Strategy: wl.Begin.Strategy, EstimatedWork: -1},
		Started: started,
	}), nil
}

// StateDigest fingerprints the current serving epoch's materialized state
// (every view's rows, order-independent). Two replicas serving the same
// epoch must report the same digest; it is the cheap cross-replica
// convergence check, and the same digest each journal window's begin record
// pins as its required pre-state.
func (w *Warehouse) StateDigest() uint64 {
	p := w.PinEpoch()
	defer p.Close()
	return recovery.StateDigest(p.pin.Warehouse())
}

// ResumeJournal reads image, the bytes of a journal, and returns a journal
// that appends to out behind them: its windows are numbered after image's
// committed ones, its accepts after image's, and its pending accepts are
// those of image — for a promoted follower that continues the log it
// replicated, rather than starting a new one (NewJournal) or re-reading a
// file (OpenJournal).
func ResumeJournal(out io.Writer, image []byte) (*Journal, error) {
	var fold journal.Fold
	if err := fold.Read(bytes.NewReader(image)); err != nil {
		return nil, fmt.Errorf("warehouse: reading the journal to resume: %w", err)
	}
	return resume(&fold, out), nil
}

package warehouse

import (
	"fmt"
	"time"

	"repro/internal/core"
)

// PlannerName selects the planning algorithm for RunWindow.
type PlannerName string

// Available planners.
const (
	// MinWorkPlanner is Algorithm 5.1 — the default: fast, optimal on tree
	// and uniform VDAGs.
	MinWorkPlanner PlannerName = "minwork"
	// PrunePlanner is Algorithm 6.1 — exhaustive over view orderings
	// (factorial in the number of views with parents); optimal over 1-way
	// strategies on any VDAG.
	PrunePlanner PlannerName = "prune"
	// DualStagePlanner is the conventional propagate-then-install strategy
	// ([CGL+96]), provided as the baseline.
	DualStagePlanner PlannerName = "dualstage"
	// SharedPlanner is the sharing-aware Prune search: candidates are costed
	// by sharing-adjusted work (multi-consumer operands charged once).
	SharedPlanner PlannerName = "shared"
)

// Planners lists the planner names Plan accepts, the default first.
var Planners = []PlannerName{MinWorkPlanner, PrunePlanner, DualStagePlanner, SharedPlanner}

// ParsePlanner maps a user-supplied planner name ("" is the default) to a
// PlannerName and rejects the ones Plan would — where flags and statements
// are parsed, not at the first window.
func ParsePlanner(name string) (PlannerName, error) {
	if name == "" {
		return MinWorkPlanner, nil
	}
	for _, p := range Planners {
		if name == string(p) {
			return p, nil
		}
	}
	return "", fmt.Errorf("unknown planner %q (have %v)", name, Planners)
}

// WindowReport records one executed update window.
type WindowReport struct {
	// Seq numbers windows from 1 in execution order.
	Seq int
	// Planner that produced the strategy.
	Planner PlannerName
	// Plan holds the strategy and its provenance.
	Plan Plan
	// Report is the measured execution.
	Report Report
	// Mode records how the strategy was scheduled (sequential when zero).
	Mode Mode
	// Parallel carries the scheduling metrics of the run (TotalWork,
	// SpanWork, CriticalPathWork, workers) — a copy of Report.Sched. A
	// sequential window's are what the same run would cost staged or
	// DAG-scheduled.
	Parallel *ParallelReport
	// Started is when the window's execution began: it is stamped after
	// planning, as the strategy is handed to the executor (for a recovered or
	// replicated window, as its replay starts), so the time from Started to
	// the window's return covers clone, steps, journal and adopt, not the
	// plan search.
	Started time.Time
	// StaleAfter lists views left stale (deferred maintenance).
	StaleAfter []string
	// Attempts counts execution attempts (retries and fallbacks included).
	Attempts int
	// FellBackSequential reports a parallel window that succeeded only
	// after degrading to sequential execution.
	FellBackSequential bool
	// Recomputed reports the window was completed by the recompute fallback
	// (install base deltas, rebuild derived views) instead of incrementally.
	Recomputed bool
	// Recovered reports the window was completed by Recover after a crash.
	Recovered bool
	// Replicated reports the window was not run locally but replayed from a
	// leader's shipped journal (ApplyWindow).
	Replicated bool
	// SpillDirsSwept counts stale spill directories — left behind by crashed
	// windows — that opening the journal removed before this window ran.
	// Only Recover-produced reports set it.
	SpillDirsSwept int
	// Ingest carries the micro-batch context for windows triggered by the
	// continuous ingester (internal/ingest); nil for operator-invoked windows.
	Ingest *IngestInfo
}

// IngestInfo is the micro-batch context an ingester-triggered window carries:
// how the batch was cut and what the freshness picture looked like when the
// window committed.
type IngestInfo struct {
	// Batch numbers the ingester's batches in the order it cut them, from 1
	// in each incarnation; the accepts the batch holds are the ones the
	// window's begin record names.
	Batch int
	// Changes is the number of row-changes in the batch.
	Changes int
	// Accepted is when the batch's oldest change was accepted — the staleness
	// clock the SLO is measured against.
	Accepted time.Time
	// QueueDepth is the change-queue depth (row-changes) at commit.
	QueueDepth int
	// Shed is the cumulative count of changes shed with ErrIngestOverloaded.
	Shed int64
	// PredictedWork is the work the window's plan predicted for the batch
	// (WindowReport.Plan.EstimatedWork), reported beside the measured work.
	PredictedWork int64
	// StalenessNS is the batch's measured staleness at commit: commit time
	// minus Accepted.
	StalenessNS int64
}

// String summarizes the window.
func (r WindowReport) String() string {
	var s string
	if r.Parallel != nil && r.Mode != ModeSequential {
		s = fmt.Sprintf("window %d [%s, %s ×%d]: %s (span %d, critical path %d)",
			r.Seq, r.Planner, r.Mode, r.Parallel.Workers, r.Report,
			r.Parallel.SpanWork, r.Parallel.CriticalPathWork)
	} else {
		s = fmt.Sprintf("window %d [%s]: %s", r.Seq, r.Planner, r.Report)
	}
	c := r.Counters()
	if c.SharedHits+c.SharedMisses > 0 {
		s += fmt.Sprintf(" shared=%d/%d saved=%d peakB=%d",
			c.SharedHits, c.SharedHits+c.SharedMisses, c.SharedTuplesSaved, c.SharedBytesPeak)
	}
	if c.SpillCount > 0 {
		s += fmt.Sprintf(" spills=%d spilledB=%d rereadB=%d memPeakB=%d",
			c.SpillCount, c.SpilledBytes, c.SpillReReadBytes, c.PeakReservedBytes)
	}
	if in := r.Ingest; in != nil {
		s += fmt.Sprintf(" ingest batch=%d n=%d queue=%d staleness=%s",
			in.Batch, in.Changes, in.QueueDepth, time.Duration(in.StalenessNS))
	}
	if r.Attempts > 1 {
		s += fmt.Sprintf(" attempts=%d", r.Attempts)
	}
	if r.Recomputed || r.FellBackSequential {
		s += fmt.Sprintf(" degraded=%s", r.Mode)
	}
	return s
}

// WindowCounters aggregates one window's engine counters: what the build
// cache (across a Comp's terms and, with ShareComputation, across the
// window's Comps), the memory budget and the resident join indexes did. All
// of it is physical work elided or moved; the work metric counts the scans
// regardless.
type WindowCounters struct {
	// EngineCounters sums the window's Comp steps.
	core.EngineCounters
	// SharedBytesPeak is the high-water resident footprint of the window's
	// build cache (0 without ShareComputation).
	SharedBytesPeak int64
	// PeakReservedBytes is the high-water mark of the window memory
	// budget's reserved build-state bytes.
	PeakReservedBytes int64
}

// Counters sums the per-step engine counters of the window.
func (r WindowReport) Counters() WindowCounters {
	var c WindowCounters
	for _, step := range r.Report.Steps {
		c.Add(step.EngineCounters)
	}
	c.SharedBytesPeak = r.Report.SharedBytesPeak
	c.PeakReservedBytes = r.Report.PeakReservedBytes
	return c
}

// WindowTally is the running count of a warehouse's update windows. Every
// committed window is folded in once, where it commits, whoever ran it — an
// operator, an ingester, Recover or a follower's ApplyWindow — and every
// error RunWindowOpts returns counts as Failed. Recovered through
// FellBackSequential count the committed windows whose report says so, Work
// sums their measured work, and WindowCounters their engine counters, with
// the largest of each peak.
type WindowTally struct {
	Committed, Failed                                     int64
	Recovered, Replicated, Recomputed, FellBackSequential int64
	Work                                                  int64
	WindowCounters
}

// add folds one committed window into the tally.
func (t *WindowTally) add(r WindowReport) {
	t.Committed++
	if r.Recovered {
		t.Recovered++
	}
	if r.Replicated {
		t.Replicated++
	}
	if r.Recomputed {
		t.Recomputed++
	}
	if r.FellBackSequential {
		t.FellBackSequential++
	}
	t.Work += r.Report.TotalWork()
	c := r.Counters()
	t.Add(c.EngineCounters)
	t.SharedBytesPeak = max(t.SharedBytesPeak, c.SharedBytesPeak)
	t.PeakReservedBytes = max(t.PeakReservedBytes, c.PeakReservedBytes)
}

// Tally returns the warehouse's window tally. Safe at any time, a window
// running included.
func (w *Warehouse) Tally() WindowTally {
	w.tallyMu.Lock()
	defer w.tallyMu.Unlock()
	return w.tally
}

// RunWindow executes one complete update window — plan the staged changes
// with the named planner, validate, execute sequentially, commit, and count
// the outcome in the warehouse's tally. It is shorthand for
// RunWindowOpts(WindowOptions{Planner: planner}).
func (w *Warehouse) RunWindow(planner PlannerName) (WindowReport, error) {
	return w.RunWindowOpts(WindowOptions{Planner: planner})
}

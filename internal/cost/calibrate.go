package cost

// Online calibration of the work model against measured windows. The static
// metric predicts *relative* work well — that is what the planner proofs
// need — but the continuous ingester must answer an absolute question: how
// many row-changes fit in a micro-batch whose window finishes inside the
// staleness budget? The Calibrator closes that loop: each committed window
// contributes its (predicted work, measured work, wall-clock) triple, and
// exponentially weighted averages of predicted-vs-actual work,
// nanoseconds-per-work-unit and work-per-change turn a wall-clock budget into
// a batch size that tracks the machine and the workload as they drift.

import (
	"math"
	"sync"
	"time"
)

// DefaultCalibrationAlpha is the EWMA smoothing factor: each observation
// contributes this fraction, so roughly the last 1/alpha windows dominate.
const DefaultCalibrationAlpha = 0.2

// Calibrator maintains EWMAs of predicted-vs-actual window behaviour.
// Methods are safe for concurrent use (the ingester observes from the window
// loop while stats readers poll).
type Calibrator struct {
	mu sync.Mutex
	// workRatio is EWMA(actual work / predicted work): how far off the
	// static metric runs on this workload.
	workRatio float64
	// nsPerWork is EWMA(elapsed ns / actual work): the machine's pace.
	nsPerWork float64
	// workPerChange is EWMA(predicted work / batch row-changes): how much
	// predicted work one queued change tends to cost, which inverts a time
	// budget into a batch-size target.
	workPerChange float64
	// n counts observations folded in.
	n int
}

func ewma(cur, obs float64, first bool) float64 {
	if first {
		return obs
	}
	return cur + DefaultCalibrationAlpha*(obs-cur)
}

// Observe folds one committed window into the calibration: the planner's
// predicted work for the batch, the measured work and wall-clock from the
// window report, and the batch's row-change count. Non-positive predicted or
// measured values contribute nothing (a recompute fallback's work is not the
// incremental model's to explain).
func (c *Calibrator) Observe(predictedWork, actualWork int64, elapsed time.Duration, changes int) {
	if predictedWork <= 0 || actualWork <= 0 || elapsed <= 0 || changes <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	first := c.n == 0
	c.workRatio = ewma(c.workRatio, float64(actualWork)/float64(predictedWork), first)
	c.nsPerWork = ewma(c.nsPerWork, float64(elapsed)/float64(actualWork), first)
	c.workPerChange = ewma(c.workPerChange, float64(predictedWork)/float64(changes), first)
	c.n++
}

// BatchFor inverts a wall-clock budget into a row-change batch target: the
// largest batch whose predicted window, at the calibrated per-change cost and
// pace, fits the budget. Returns 0 when uncalibrated — the caller keeps its
// configured default until windows have been observed.
func (c *Calibrator) BatchFor(budget time.Duration) int {
	if budget <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n == 0 {
		return 0
	}
	nsPerChange := c.workPerChange * c.workRatio * c.nsPerWork
	if nsPerChange <= 0 || math.IsNaN(nsPerChange) {
		return 0
	}
	n := float64(budget) / nsPerChange
	if n < 1 {
		return 1
	}
	if n > math.MaxInt32 {
		return math.MaxInt32
	}
	return int(n)
}

// CalibrationStats is a snapshot of the calibrator's EWMAs, for observability.
type CalibrationStats struct {
	// Windows is the number of observations folded in.
	Windows int `json:"windows"`
	// WorkRatio is EWMA(actual/predicted work); 1.0 means the static metric
	// is absolutely accurate on this workload.
	WorkRatio float64 `json:"work_ratio"`
	// NSPerWork is EWMA(elapsed ns per actual work unit).
	NSPerWork float64 `json:"ns_per_work"`
	// WorkPerChange is EWMA(predicted work per batch row-change).
	WorkPerChange float64 `json:"work_per_change"`
}

// Stats snapshots the calibration state.
func (c *Calibrator) Stats() CalibrationStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CalibrationStats{
		Windows:       c.n,
		WorkRatio:     c.workRatio,
		NSPerWork:     c.nsPerWork,
		WorkPerChange: c.workPerChange,
	}
}

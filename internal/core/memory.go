package core

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/cost"
	"repro/internal/faults"
	"repro/internal/memory"
)

// This file attaches the window-wide memory budget (internal/memory) to the
// warehouse. Like the window's build cache, a memManager lives for one update
// window: AttachMemory installs it before the first step, every build-side
// materialization draws on its budget (see buildFromRows), the first spill
// creates the spill directory, and DetachMemory reports the window's spill
// accounting and removes the directory if a spill created it.
//
// The budget governs hash-table state: the builds of the cache, for as long
// as the cache holds them, and the loaded partitions of spilled ones. Driver-row
// materializations are not charged: they are consumed streaming, morsel by
// morsel, and never held beyond the term that scans them. Nor are resident
// join indexes (storage.Index): they outlive the window with the tables they
// belong to. A step that probes one sits in the same pipeline as a step
// whose build spilled; pass-wise probing repeats its probes, which the
// metric does not count.

// residentFraction is the share of the budget available to resident builds;
// the remainder is headroom for the forced reservations of spill-partition
// loads, keeping the window's true peak under the configured budget.
const residentFraction = 0.75

// memManager is the per-window memory state: the budget, the spill
// directory, the fault injector for spill I/O, and window-wide totals.
type memManager struct {
	budget   *memory.Budget
	resLimit int64 // admission cap for resident builds (headroom below limit)
	inj      *faults.Injector
	nextID   atomic.Int64 // spill file naming

	// dir is the spill directory; the first spill creates it (spillDir),
	// and made records that it did.
	dir    string
	mkdir  sync.Once
	made   bool
	dirErr error

	spills       atomic.Int64
	spilledBytes atomic.Int64
	reReadBytes  atomic.Int64
}

// MemStats summarizes a detached memory manager for reporting.
type MemStats struct {
	// SpillCount is the number of build tables spilled to disk.
	SpillCount int
	// SpilledBytes is the total bytes written to spill files.
	SpilledBytes int64
	// SpillReReadBytes is the total bytes re-read from spill files during
	// partition-wise probing.
	SpillReReadBytes int64
	// PeakReservedBytes is the high-water mark of reserved build-state
	// bytes, including resident spill partitions during probing passes.
	PeakReservedBytes int64
}

// AttachMemory installs a memory budget on the warehouse for the coming
// window, spilling oversized builds under dir (a per-run temp dir when dir is
// empty), which the window's first spill creates. It reports false —
// attaching nothing — when no budget is configured or a manager is already
// attached. Not safe to call while expressions execute.
func (w *Warehouse) AttachMemory(dir string, inj *faults.Injector) bool {
	if w.opts.MemoryBudgetBytes <= 0 || w.mem != nil {
		return false
	}
	limit := w.opts.MemoryBudgetBytes
	resLimit := int64(float64(limit) * residentFraction)
	if resLimit < 1 {
		resLimit = 1
	}
	w.mem = &memManager{
		budget:   memory.NewBudget(limit),
		resLimit: resLimit,
		dir:      dir,
		inj:      inj,
	}
	return true
}

// spillDir returns the window's spill directory, creating it on the first
// call: a window that spills nothing touches no file system.
func (mm *memManager) spillDir() (string, error) {
	mm.mkdir.Do(func() {
		if mm.dir == "" {
			mm.dir, mm.dirErr = os.MkdirTemp("", "whspill-")
		} else {
			mm.dirErr = os.MkdirAll(mm.dir, 0o755)
		}
		if mm.dirErr != nil {
			mm.dirErr = fmt.Errorf("core: creating spill dir: %w", mm.dirErr)
		}
		mm.made = mm.dirErr == nil
	})
	return mm.dir, mm.dirErr
}

// DetachMemory removes the manager, deletes the spill directory if a spill
// created it, and returns the window's memory stats. After a crash-class
// fault the directory is left in place — a killed process removes nothing —
// so the stale-dir sweep on warehouse open (see OpenJournal) is exercised by
// the same machinery a real crash would leave behind. Safe to call when
// nothing is attached.
func (w *Warehouse) DetachMemory() MemStats {
	mm := w.mem
	w.mem = nil
	if mm == nil {
		return MemStats{}
	}
	if mm.made && !mm.inj.Crashed() {
		os.RemoveAll(mm.dir)
	}
	return MemStats{
		SpillCount:        int(mm.spills.Load()),
		SpilledBytes:      mm.spilledBytes.Load(),
		SpillReReadBytes:  mm.reReadBytes.Load(),
		PeakReservedBytes: mm.budget.Peak(),
	}
}

// partTarget is the on-disk partition size spilling aims for: small enough
// that the one-resident-partition-per-spilled-step working set of a probing
// pass fits comfortably in the budget's headroom, large enough to bound the
// file count.
func (mm *memManager) partTarget() int64 {
	t := mm.budget.Limit() / 8
	if t < 64<<10 {
		t = 64 << 10
	}
	return t
}

// estimateRowsBytes estimates the resident hash-table footprint of a
// materialized row set, in the units the planner's sharing election prices
// with.
func estimateRowsBytes(rows []prow) int64 {
	width := 1
	if len(rows) > 0 {
		width = len(rows[0].row)
	}
	return cost.EstimateMaterializedBytes(int64(len(rows)), width)
}

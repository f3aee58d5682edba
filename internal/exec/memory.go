package exec

import (
	"repro/internal/core"
	"repro/internal/faults"
)

// AttachMemory attaches a window memory budget to the warehouse when its
// options configure one, spilling oversized builds under dir (a per-run temp
// directory when empty). It returns the detach function the caller must
// invoke once the window completes; when no budget is configured (or a
// manager is already attached) the returned function is a harmless no-op, so
// callers can attach/detach unconditionally — mirroring AttachSharing. The
// window's first spill creates dir; a failure to do so fails that spill.
func AttachMemory(w *core.Warehouse, dir string, inj *faults.Injector) func() core.MemStats {
	if !w.AttachMemory(dir, inj) {
		return func() core.MemStats { return core.MemStats{} }
	}
	return w.DetachMemory
}

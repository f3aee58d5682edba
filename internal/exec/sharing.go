package exec

import "repro/internal/core"

// This file adapts a warehouse catalog to what the planner's sharing analysis
// asks of it, and attaches the window's build cache for Execute.

// RefsOf adapts a warehouse catalog to the reference function
// planner.AnalyzeSharing expects: the FROM-clause view list of each derived
// view's definition (one entry per reference, so self-joins repeat), nil for
// base views and unknown names.
func RefsOf(w *core.Warehouse) func(view string) []string {
	return func(view string) []string {
		v := w.View(view)
		if v == nil || v.IsBase() {
			return nil
		}
		refs := v.Def().Refs
		out := make([]string, len(refs))
		for i, ref := range refs {
			out[i] = ref.View
		}
		return out
	}
}

// PairsOf is inert — join intermediates are gone, and nothing reads what this
// returns; it stays because the frozen benchmark (bench/layers.go) calls it.
func PairsOf(*core.Warehouse) any { return nil }

// WidthOf adapts a warehouse catalog to the tuple-width function the
// planner's byte pricing expects (0 for unknown names, letting the planner
// fall back to its nominal width).
func WidthOf(w *core.Warehouse) func(view string) int {
	return func(view string) int {
		v := w.View(view)
		if v == nil {
			return 0
		}
		return len(v.Schema())
	}
}

// AttachSharing makes the warehouse's build cache live for the coming window
// when its options enable sharing, and returns the detach function the
// caller must invoke once the window completes. When sharing is off (or a
// cache is already attached) the returned function is a harmless no-op, so
// callers can attach/detach unconditionally.
func AttachSharing(w *core.Warehouse) func() core.SharedStats {
	if !w.AttachSharing() {
		return func() core.SharedStats { return core.SharedStats{} }
	}
	return w.DetachSharing
}

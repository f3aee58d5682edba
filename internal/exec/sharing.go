package exec

import (
	"repro/internal/core"
	"repro/internal/planner"
	"repro/internal/strategy"
)

// This file bridges the planner's static sharing analysis to the executor's
// window-wide shared-result registry: Execute attaches a registry seeded
// from planner.AnalyzeSharing before its first step and detaches it —
// harvesting the transient-footprint stats — when the window ends.

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

// PairsOf adapts a warehouse catalog to the pair-hint function the planner's
// joint election expects: each derived view's adjacent equi-joined reference
// pairs (core.PairCandidates), nil for base views and unknown names.
func PairsOf(w *core.Warehouse) func(view string) []planner.PairHint {
	return func(view string) []planner.PairHint {
		v := w.View(view)
		if v == nil || v.IsBase() {
			return nil
		}
		cands := core.PairCandidates(v.Def())
		out := make([]planner.PairHint, len(cands))
		for i, pc := range cands {
			out[i] = planner.PairHint{A: pc.ViewA, B: pc.ViewB, Sig: pc.Sig}
		}
		return out
	}
}

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

// HintsFromPlan converts a planner sharing plan to the executor's hint form,
// including the jointly-elected join intermediates and the row estimates the
// registry feeds back to the share tuner.
func HintsFromPlan(plan planner.SharingPlan) *core.SharingHints {
	h := &core.SharingHints{
		Consumers: make(map[core.SharedOperand]int, len(plan.Consumers)),
		ByComp:    make(map[string][]core.SharedOperand, len(plan.ByComp)),
	}
	for op, n := range plan.Consumers {
		h.Consumers[core.SharedOperand(op)] = n
	}
	for comp, ops := range plan.ByComp {
		conv := make([]core.SharedOperand, len(ops))
		for i, op := range ops {
			conv[i] = core.SharedOperand(op)
		}
		h.ByComp[comp] = conv
	}
	if len(plan.InterConsumers) > 0 {
		h.InterConsumers = make(map[core.InterSpec]int, len(plan.InterConsumers))
		h.InterByComp = make(map[string][]core.InterSpec, len(plan.InterByComp))
		for ik, n := range plan.InterConsumers {
			h.InterConsumers[core.InterSpec(ik)] = n
		}
		for comp, iks := range plan.InterByComp {
			conv := make([]core.InterSpec, len(iks))
			for i, ik := range iks {
				conv[i] = core.InterSpec(ik)
			}
			h.InterByComp[comp] = conv
		}
	}
	if len(plan.EstRows) > 0 {
		h.EstRows = make(map[core.SharedOperand]int64, len(plan.EstRows))
		for op, rows := range plan.EstRows {
			h.EstRows[core.SharedOperand(op)] = rows
		}
	}
	if len(plan.InterEstRows) > 0 {
		h.InterEstRows = make(map[core.InterSpec]int64, len(plan.InterEstRows))
		for ik, rows := range plan.InterEstRows {
			h.InterEstRows[core.InterSpec(ik)] = rows
		}
	}
	return h
}

// SharingHints runs the planner's sharing analysis for a strategy and
// converts it to the executor's hint form. The registry only materializes
// operands the hints mark as multi-consumer, so feeding hints for a strategy
// other than the one about to run is safe but useless.
func SharingHints(w *core.Warehouse, s strategy.Strategy) *core.SharingHints {
	return HintsFromPlan(planner.AnalyzeSharing(s, RefsOf(w), nil))
}

// AttachSharing attaches a shared-computation registry for the strategy when
// the warehouse's options enable it, and returns the detach function the
// caller must invoke once the window completes. Jointly-optimized hints
// recorded by the sharing-aware planner (core.SetPlannedSharing) take
// precedence over the after-the-fact analysis of the strategy — they carry
// the elected join intermediates and budget-clamped row estimates. When
// sharing is off (or a registry is already attached) the returned function
// is a harmless no-op, so callers can attach/detach unconditionally.
func AttachSharing(w *core.Warehouse, s strategy.Strategy) func() core.SharedStats {
	if !w.Options().ShareComputation {
		return func() core.SharedStats { return core.SharedStats{} }
	}
	h := w.PlannedSharing()
	if h == nil {
		h = SharingHints(w, s)
	}
	if !w.AttachSharing(h) {
		return func() core.SharedStats { return core.SharedStats{} }
	}
	return w.DetachSharing
}

package planner

import (
	"math/bits"
	"sort"

	"repro/internal/cost"
	"repro/internal/strategy"
	"repro/internal/vdag"
)

// This file is the sharing-aware strategy search (ROADMAP: "Plan sharing
// globally"). Prune picks the strategy with the least *linear* work and
// never prefers a plan because it shares well. PruneShared instead costs
// every candidate with sharing-adjusted work: the linear work minus the
// operand scans its sharing plan would elide, priced by the
// model's per-tuple compute coefficient. On graphs where the work-optimal
// ordering interleaves installs between computes — version-splitting every
// operand so nothing is reusable — the joint search can elect a slightly
// costlier ordering (typically the dual-stage compute-then-install shape)
// whose sharing more than pays for the difference.

// SharedSearchOptions parameterize PruneShared.
type SharedSearchOptions struct {
	// Refs supplies each derived view's FROM-clause reference list
	// (exec.RefsOf). When nil it is expanded from the RefCounts.
	Refs func(view string) []string
	// Sharing parameterizes each candidate's sharing analysis (widths).
	// Sharing.Stats is overwritten with the search's stats.
	Sharing SharingOptions
}

// SharedResult reports the outcome of a PruneShared search.
type SharedResult struct {
	Strategy strategy.Strategy
	// Ordering is the view ordering whose partition the winner belongs to;
	// nil when the winner is the extra dual-stage candidate.
	Ordering []string
	// Work is the winner's unadjusted linear work; AdjustedWork subtracts
	// the estimated scans its sharing plan saves. Candidates are compared
	// by AdjustedWork.
	Work, AdjustedWork float64
	// Plan is the winner's sharing plan.
	Plan SharingPlan
	// Examined and Feasible are the search's effort as in PruneResult:
	// prefixes priced, and complete orderings found feasible. DualStage
	// reports that the extra dual-stage candidate won.
	Examined, Feasible int
	DualStage          bool
}

// refsFromCounts expands RefCounts into a reference-list function:
// each child repeated by its reference count, in sorted child order.
func refsFromCounts(refs cost.RefCounts) func(view string) []string {
	return func(view string) []string {
		m := refs[view]
		names := make([]string, 0, len(m))
		for c := range m {
			names = append(names, c)
		}
		sort.Strings(names)
		var out []string
		for _, c := range names {
			for i := 0; i < m[c]; i++ {
				out = append(out, c)
			}
		}
		return out
	}
}

// boundSharing gives place what sh's election saves: (consumers − 1) scans of
// every operand. Which version of view X's
// state a Comp reads depends only on whether the child that Comp propagates
// is placed before X, so those reads are counted per view and propagated
// child for place to add up; every other operand — a delta, always read
// before its install — has the same consumers under every ordering and goes
// in the base. sh was compiled from s.nodes, whose first nViews expressions
// are the Insts: its view ids are the search's.
func (s *search) boundSharing(sh *sharer) {
	price := func(op int32) float64 {
		return s.model.CompCoeff * float64(max(sh.op[op].rows, 0)) // noStats is negative
	}
	m := len(s.ord)
	s.stateReads = make([]int32, s.nViews*m)
	s.stateSaving = make([][2]float64, s.nViews)
	for x := range s.stateSaving {
		s.stateSaving[x] = [2]float64{price(sh.opID(int32(x), 0, false)), price(sh.opID(int32(x), 1, false))}
	}
	fixed := make([]int, len(sh.consumers)) // per operand no ordering changes: the Comps reading it
	for k, n := range sh.nodes[s.nViews:] {
		over := bits.TrailingZeros32(s.bit[s.compOver[k]])
		for _, r := range n.reads {
			if !r.delta && int(r.view) < s.nViews && s.bit[r.view] != 0 {
				s.stateReads[int(r.view)*m+over]++
			} else {
				fixed[sh.opID(r.view, 0, r.delta)]++
			}
		}
	}
	for op, n := range fixed {
		s.shareBase += price(int32(op)) * float64(max(n-1, 0))
	}
}

// PruneShared (sharing-aware Algorithm 6.1) searches the same candidate
// space as Prune — one representative strongly consistent strategy per
// feasible view ordering — plus the dual-stage strategy (all computes, then
// all installs; maximally sharing-friendly but not always work-minimal),
// and returns the candidate with the least sharing-adjusted work together
// with its sharing plan, the first found winning ties. The VDAG and the
// sharing analysis of its expressions are compiled once, so an ordering costs
// no allocation and only the winner's plan is rendered. Prune's bound carries
// over with the election's saving added per view (boundSharing), exact and as
// sharp as Prune's. A model without coefficients is cost.DefaultModel, for work and saved scans
// alike.
func PruneShared(g *vdag.Graph, model cost.Model, stats cost.Stats, refs cost.RefCounts, opts SharedSearchOptions) (SharedResult, error) {
	res := SharedResult{Work: -1, AdjustedWork: -1}
	s, err := compileSearch(g, model, stats, refs)
	if err != nil {
		return res, err
	}
	refsFn := opts.Refs
	if refsFn == nil {
		refsFn = refsFromCounts(refs)
	}
	shOpts := opts.Sharing
	shOpts.Stats = stats
	sh := compileSharing(s.nodes, refsFn, shOpts)
	s.boundSharing(sh)
	pr, adjusted := s.run(func() float64 { return s.model.CompCoeff * float64(sh.analyze(s.out)) })
	res.Work, res.AdjustedWork, res.Examined, res.Feasible = pr.Work, adjusted, pr.Examined, pr.Feasible
	// The dual-stage strategy computes every derived view against fully
	// quiescent children before any install: no operand is version-split,
	// so it is the sharing upper bound. It is weakly (not strongly)
	// consistent and therefore outside Prune's candidate space; evaluate it
	// last so an ordering candidate wins work-ties.
	dual := strategy.DualStageVDAG(g)
	w, err := cost.Work(s.model, stats, refs, dual)
	if err != nil {
		return res, err
	}
	plan := AnalyzeSharing(dual, refsFn, shOpts)
	if adj := w - s.model.CompCoeff*float64(plan.EstimatedSavedTuples); res.AdjustedWork < 0 || adj < res.AdjustedWork {
		res.Work, res.AdjustedWork = w, adj
		res.Strategy, res.Plan, res.DualStage = dual, plan, true
		return res, nil
	}
	res.Strategy, res.Ordering = pr.Strategy, pr.Ordering
	sh.analyze(s.out)
	res.Plan = sh.plan()
	return res, nil
}

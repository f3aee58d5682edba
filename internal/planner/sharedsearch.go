package planner

import (
	"sort"

	"repro/internal/cost"
	"repro/internal/strategy"
	"repro/internal/vdag"
)

// This file is the sharing-aware strategy search (ROADMAP: "Plan sharing
// globally"). Prune picks the strategy with the least *linear* work and
// never prefers a plan because it shares well. PruneShared instead costs
// every candidate with sharing-adjusted work: the linear work minus the
// operand scans a budget-admitted sharing plan would elide, priced by the
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
	// Sharing parameterizes each candidate's sharing analysis (budget,
	// widths). Sharing.Stats is overwritten with the search's stats.
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
	// Examined and Feasible count the ordering candidates as in Prune;
	// DualStage reports that the extra dual-stage candidate won.
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

// PruneShared (sharing-aware Algorithm 6.1) searches the same candidate
// space as Prune — one representative strongly consistent strategy per
// feasible view ordering — plus the dual-stage strategy (all computes, then
// all installs; maximally sharing-friendly but not always work-minimal),
// and returns the candidate with the least sharing-adjusted work together
// with its sharing plan, the first found winning ties. The VDAG and the
// sharing analysis of its expressions are compiled once, so an ordering costs
// no allocation and only the winner's plan is rendered. A model without
// coefficients is cost.DefaultModel, for work and saved scans alike.
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
	plan := AnalyzeSharingOpts(dual, refsFn, shOpts)
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

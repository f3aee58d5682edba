package planner

import (
	"fmt"
	"sort"

	"repro/internal/cost"
	"repro/internal/strategy"
	"repro/internal/vdag"
)

// This file holds the reference implementations the compiled search is
// tested against: the pre-compilation sharing analysis, and the Prune /
// PruneShared loops written from the retained public pieces.

// refShareCand is one election candidate.
type refShareCand struct {
	op    OperandKey
	n     int
	rows  int64
	bytes int64
	saved int64
	name  string
}

// refAnalyzeSharing is the string- and map-keyed sharing analysis as it
// stood before the compiled core replaced it, cut to the operand election
// when the join intermediates and the share tuner went and to its count of
// every candidate when the byte budget went, and otherwise kept verbatim as
// the oracle the differential tests compare AnalyzeSharing against.
func refAnalyzeSharing(s strategy.Strategy, refs func(view string) []string, opts SharingOptions) SharingPlan {
	plan := SharingPlan{
		Consumers: make(map[OperandKey]int),
		ByComp:    make(map[string][]OperandKey),
	}
	stats := opts.Stats
	version := make(map[string]int)

	for _, e := range s {
		switch x := e.(type) {
		case strategy.Comp:
			deltas, states := x.Reads(refs(x.View))
			var ops []OperandKey
			for _, v := range deltas {
				ops = append(ops, OperandKey{View: v, Delta: true, Version: version[v]})
			}
			for _, v := range states {
				ops = append(ops, OperandKey{View: v, Version: version[v]})
			}
			// Self-joins repeat an operand inside one Comp; consumers are
			// per Comp, so deduplicate before counting.
			key := x.Key()
			seen := make(map[OperandKey]bool, len(ops))
			for _, op := range ops {
				if !seen[op] {
					seen[op] = true
					plan.Consumers[op]++
					plan.ByComp[key] = append(plan.ByComp[key], op)
				}
			}
		case strategy.Inst:
			version[x.View]++
		}
	}
	for _, n := range plan.Consumers {
		if n >= 2 {
			plan.SharedOperands++
		}
	}
	if stats == nil {
		return plan
	}

	width := opts.Width
	if width == nil {
		width = func(string) int { return nominalShareWidth }
	}
	sizeAt := func(view string, delta bool, ver int) (int64, bool) {
		st, ok := stats[view]
		if !ok {
			return 0, false
		}
		switch {
		case delta:
			return st.DeltaSize(), true
		case ver > 0:
			return st.SizeAfter(), true
		default:
			return st.Size, true
		}
	}

	var opCands []*refShareCand
	for op, n := range plan.Consumers {
		if n < 2 {
			continue
		}
		size, ok := sizeAt(op.View, op.Delta, op.Version)
		if !ok {
			continue
		}
		name := op.View
		if op.Delta {
			name = "δ" + name
		}
		opCands = append(opCands, &refShareCand{
			op:    op,
			n:     n,
			rows:  size,
			bytes: cost.EstimateMaterializedBytes(size, width(op.View)),
			saved: int64(n-1) * size,
			name:  fmt.Sprintf("%s v%d", name, op.Version),
		})
	}
	// Most saved first, ties by name for determinism.
	sort.Slice(opCands, func(i, j int) bool {
		a, b := opCands[i], opCands[j]
		if a.saved != b.saved {
			return a.saved > b.saved
		}
		return a.name < b.name
	})
	for _, c := range opCands {
		if c.saved > 0 {
			plan.EstimatedSavedTuples += c.saved
		}
		plan.Elected = append(plan.Elected, ElectedShare{
			Name: c.name, Consumers: c.n,
			EstRows: c.rows, EstBytes: c.bytes, EstSavedTuples: c.saved,
		})
	}
	return plan
}

// refPrune is Prune as a loop over the retained public pieces: a strong
// expression graph built, sorted and costed from scratch per ordering.
func refPrune(g *vdag.Graph, model cost.Model, stats cost.Stats, refs cost.RefCounts) (PruneResult, error) {
	res := PruneResult{Work: -1}
	for _, ord := range strategy.Permutations(g.ViewsWithParents()) {
		res.Examined++
		s, err := ConstructSEG(g, ord).TopoSort()
		if err != nil {
			continue
		}
		res.Feasible++
		w, err := cost.Work(model, stats, refs, s)
		if err != nil {
			return res, err
		}
		if res.Work < 0 || w < res.Work {
			res.Work, res.Strategy, res.Ordering = w, s, ord
		}
	}
	return res, nil
}

// refPruneShared is PruneShared likewise, with the per-strategy sharing
// analysis a parameter.
func refPruneShared(g *vdag.Graph, model cost.Model, stats cost.Stats, refs cost.RefCounts, opts SharedSearchOptions,
	analyze func(strategy.Strategy, func(string) []string, SharingOptions) SharingPlan) (SharedResult, error) {
	res := SharedResult{Work: -1, AdjustedWork: -1}
	refsFn := opts.Refs
	if refsFn == nil {
		refsFn = refsFromCounts(refs)
	}
	shOpts := opts.Sharing
	shOpts.Stats = stats
	consider := func(s strategy.Strategy, ord []string) error {
		w, err := cost.Work(model, stats, refs, s)
		if err != nil {
			return err
		}
		plan := analyze(s, refsFn, shOpts)
		if adj := w - model.CompCoeff*float64(plan.EstimatedSavedTuples); res.AdjustedWork < 0 || adj < res.AdjustedWork {
			res.Work, res.AdjustedWork, res.Strategy, res.Plan = w, adj, s, plan
			res.Ordering, res.DualStage = ord, ord == nil
		}
		return nil
	}
	for _, ord := range strategy.Permutations(g.ViewsWithParents()) {
		res.Examined++
		s, err := ConstructSEG(g, ord).TopoSort()
		if err != nil {
			continue
		}
		res.Feasible++
		if err := consider(s, ord); err != nil {
			return res, err
		}
	}
	return res, consider(strategy.DualStageVDAG(g), nil)
}

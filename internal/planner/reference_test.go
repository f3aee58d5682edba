package planner

import (
	"fmt"
	"sort"

	"repro/internal/cost"
	"repro/internal/strategy"
	"repro/internal/vdag"
)

// This file holds the reference implementations the compiled forms are
// tested against: the string-keyed expression graph that MinWork and the
// searches were built on before they ran over view ids, the pre-compilation
// sharing analysis, and the MinWork, Prune and PruneShared loops written over
// them.

// refEG is ConstructEG's expression graph as it stood before the skeleton:
// nodes interned by Expr.Key(), edges deduplicated in a map, every ordering
// edge (no transitive reduction).
type refEG struct {
	nodes []strategy.Expr
	index map[string]int
	prio  []int
	after [][]int // after[b]: the nodes that must come after node b
	seen  map[[2]int]bool
	indeg []int
}

func (eg *refEG) add(e strategy.Expr, prio int) {
	if _, ok := eg.index[e.Key()]; ok {
		return
	}
	eg.index[e.Key()] = len(eg.nodes)
	eg.nodes = append(eg.nodes, e)
	eg.prio = append(eg.prio, prio)
	eg.after = append(eg.after, nil)
	eg.indeg = append(eg.indeg, 0)
}

// dep records that a must come after b.
func (eg *refEG) dep(a, b strategy.Expr) {
	ai, bi := eg.index[a.Key()], eg.index[b.Key()]
	if eg.seen[[2]int{ai, bi}] {
		return
	}
	eg.seen[[2]int{ai, bi}] = true
	eg.after[bi] = append(eg.after[bi], ai)
	eg.indeg[ai]++
}

// refConstruct is construct as it stood before the skeleton (ConstructEG,
// Appendix B; strong adds ConstructSEG's Inst→Inst edges).
func refConstruct(g *vdag.Graph, ordering []string, strong bool) *refEG {
	eg := &refEG{index: make(map[string]int), seen: make(map[[2]int]bool)}
	pos := make(map[string]int, len(ordering))
	for i, v := range ordering {
		pos[v] = i
	}
	orderPos := func(v string) int {
		if p, ok := pos[v]; ok {
			return p
		}
		return len(ordering)
	}
	for _, v := range g.Views() {
		eg.add(strategy.Inst{View: v}, orderPos(v)*2+1)
	}
	for _, v := range g.Views() {
		for _, c := range g.Children(v) {
			eg.add(strategy.Comp{View: v, Over: []string{c}}, orderPos(c)*2)
		}
	}
	for _, v := range g.Views() {
		children := g.Children(v)
		for _, ci := range children {
			for _, cj := range children {
				pi, iok := pos[ci]
				pj, jok := pos[cj]
				if ci == cj || !iok || !jok || pi >= pj {
					continue
				}
				later := strategy.Comp{View: v, Over: []string{cj}}
				eg.dep(later, strategy.Comp{View: v, Over: []string{ci}})
				eg.dep(later, strategy.Inst{View: ci})
			}
		}
		for _, c := range children {
			comp := strategy.Comp{View: v, Over: []string{c}}
			eg.dep(strategy.Inst{View: c}, comp)
			eg.dep(strategy.Inst{View: v}, comp)
			for _, gc := range g.Children(c) {
				eg.dep(comp, strategy.Comp{View: c, Over: []string{gc}})
			}
		}
	}
	if strong {
		for i := 0; i < len(ordering); i++ {
			for j := i + 1; j < len(ordering); j++ {
				eg.dep(strategy.Inst{View: ordering[j]}, strategy.Inst{View: ordering[i]})
			}
		}
	}
	return eg
}

// topoSort is the deterministic sort: among ready nodes the smallest
// (priority, node id) first; false when the graph is cyclic.
func (eg *refEG) topoSort() (strategy.Strategy, bool) {
	indeg := append([]int(nil), eg.indeg...)
	var ready []int
	for i, n := range indeg {
		if n == 0 {
			ready = append(ready, i)
		}
	}
	var out strategy.Strategy
	for len(ready) > 0 {
		best := 0
		for i, n := range ready {
			if b := ready[best]; eg.prio[n] < eg.prio[b] || (eg.prio[n] == eg.prio[b] && n < b) {
				best = i
			}
		}
		node := ready[best]
		ready = append(ready[:best], ready[best+1:]...)
		out = append(out, eg.nodes[node])
		for _, a := range eg.after[node] {
			if indeg[a]--; indeg[a] == 0 {
				ready = append(ready, a)
			}
		}
	}
	return out, len(out) == len(eg.nodes)
}

// refMinWork is MinWork over refConstruct.
func refMinWork(g *vdag.Graph, stats cost.Stats) (MinWorkResult, error) {
	var res MinWorkResult
	desired, err := DesiredOrdering(g.ViewsWithParents(), stats)
	if err != nil {
		return res, err
	}
	res.DesiredOrdering, res.UsedOrdering = desired, desired
	if s, ok := refConstruct(g, desired, false).topoSort(); ok {
		res.Strategy = s
		return res, nil
	}
	res.UsedOrdering, res.Modified = g.SortByLevel(desired), true
	s, ok := refConstruct(g, res.UsedOrdering, false).topoSort()
	if !ok {
		return res, fmt.Errorf("reference: modified ordering cyclic")
	}
	res.Strategy = s
	return res, nil
}

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

// refPrune is Prune as a loop over the reference pieces: a strong
// expression graph built, sorted and costed from scratch per ordering.
func refPrune(g *vdag.Graph, model cost.Model, stats cost.Stats, refs cost.RefCounts) (PruneResult, error) {
	res := PruneResult{Work: -1}
	for _, ord := range strategy.Permutations(g.ViewsWithParents()) {
		res.Examined++
		s, ok := refConstruct(g, ord, true).topoSort()
		if !ok {
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
		s, ok := refConstruct(g, ord, true).topoSort()
		if !ok {
			continue
		}
		res.Feasible++
		if err := consider(s, ord); err != nil {
			return res, err
		}
	}
	return res, consider(strategy.DualStageVDAG(g), nil)
}

package planner

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/strategy"
	"repro/internal/vdag"
)

// This file holds the reference implementations the compiled forms are
// tested against: the string-keyed expression graph that MinWork and Prune
// were built on before they ran over view ids, and the MinWork and Prune
// loops written over it.

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

// Package planner implements the paper's three algorithms:
//
//   - MinWorkSingle (Algorithm 4.1): the optimal view strategy for a single
//     view under the linear work metric, in O(n log n).
//   - MinWork (Algorithm 5.1): expression-graph based VDAG strategies,
//     provably optimal whenever the expression graph for the desired view
//     ordering is acyclic — in particular for all tree VDAGs (Lemma 5.1)
//     and all uniform VDAGs (Lemma 5.2) — and falling back to
//     ModifyOrdering (Algorithm 5.2, always acyclic by Theorem 5.5).
//   - Prune (Algorithm 6.1): search over view orderings using strong
//     expression graphs, returning the cheapest 1-way VDAG strategy.
package planner

import (
	"fmt"

	"repro/internal/strategy"
	"repro/internal/vdag"
)

// EdgeLabel identifies which correctness condition (or the view ordering)
// demands a dependency edge in an expression graph.
type EdgeLabel string

// Edge labels, following the proof notation of Appendix A.
const (
	LabelOrder EdgeLabel = "V" // view-ordering dependency between Comps
	LabelC3    EdgeLabel = "C3"
	LabelC4    EdgeLabel = "C4"
	LabelC5    EdgeLabel = "C5"
	LabelC8    EdgeLabel = "C8"
	LabelSEG   EdgeLabel = "SEG" // Inst→Inst edges of strong expression graphs
)

// ExprGraph is the expression graph EG(G, V⃗) of Section 5.2: nodes are the
// 1-way expressions of the VDAG; an edge X→Y (label[{X, Y}], and in deps)
// means X must come after Y in any strategy the graph admits.
type ExprGraph struct {
	nodes []strategy.Expr
	index map[string]int // expression key -> node id
	label map[[2]int]EdgeLabel
	deps  depGraph
}

// depGraph is a dependency graph in flat arrays: the form the topological
// sort runs on, and the one the compiled search (search.go) extends with one
// ordering's edges at a time. Edge e hangs off the node that must come first
// and names in to[e] a node that must come after it; a node's edges are
// chained from head[node] through next, −1 ending the chain.
type depGraph struct {
	prio     []int32 // topological-sort priority per node
	indeg    []int32 // how many nodes each node must come after
	head     []int32
	next, to []int32
}

// addDep records that node after must come after node before.
func (d *depGraph) addDep(after, before int32) {
	d.to = append(d.to, after)
	d.next = append(d.next, d.head[before])
	d.head[before] = int32(len(d.to) - 1)
	d.indeg[after]++
}

// sort writes a dependency-respecting order of the nodes to out and returns
// how many it placed — fewer than all of them when the graph is cyclic. It
// counts indeg down (nodes left positive sit on or behind a cycle) and uses
// ready as scratch. The order is deterministic: among ready nodes, the one
// with the smallest (priority, node id) runs first, which yields the natural
// strategy shape ⟨…; Comp(·,{Vi}); Inst(Vi); …⟩ in ordering order.
func (d *depGraph) sort(indeg, ready, out []int32) int {
	ready = ready[:0]
	for i, n := range indeg {
		if n == 0 {
			ready = append(ready, int32(i))
		}
	}
	placed := 0
	for len(ready) > 0 {
		best := 0
		for i := 1; i < len(ready); i++ {
			a, b := ready[i], ready[best]
			if d.prio[a] < d.prio[b] || (d.prio[a] == d.prio[b] && a < b) {
				best = i
			}
		}
		node := ready[best]
		ready[best] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		out[placed] = node
		placed++
		for e := d.head[node]; e >= 0; e = d.next[e] {
			if indeg[d.to[e]]--; indeg[d.to[e]] == 0 {
				ready = append(ready, d.to[e])
			}
		}
	}
	return placed
}

// nodeID returns the id for an expression key.
func (eg *ExprGraph) nodeID(e strategy.Expr) int { return eg.index[e.Key()] }

// addDep records that a must come after b.
func (eg *ExprGraph) addDep(a, b strategy.Expr, l EdgeLabel) {
	ai, bi := eg.nodeID(a), eg.nodeID(b)
	key := [2]int{ai, bi}
	if _, dup := eg.label[key]; dup {
		return
	}
	eg.label[key] = l
	eg.deps.addDep(int32(ai), int32(bi))
}

// Nodes returns the 1-way expressions of the graph.
func (eg *ExprGraph) Nodes() []strategy.Expr { return append([]strategy.Expr(nil), eg.nodes...) }

// EdgeCount returns the number of dependency edges.
func (eg *ExprGraph) EdgeCount() int { return len(eg.label) }

// HasDep reports whether expression a must come after expression b.
func (eg *ExprGraph) HasDep(a, b strategy.Expr) bool {
	_, ok := eg.label[[2]int{eg.nodeID(a), eg.nodeID(b)}]
	return ok
}

// construct builds the expression graph of g with respect to ordering,
// following ConstructEG (Appendix B). ordering must contain every view that
// some Comp propagates (i.e., every view with a parent); views missing from
// the ordering are unconstrained by ordering edges. strong adds the Inst→Inst
// edges of ConstructSEG, which force the produced strategy to be *strongly*
// consistent with the ordering.
func construct(g *vdag.Graph, ordering []string, strong bool) *ExprGraph {
	eg := &ExprGraph{index: make(map[string]int), label: make(map[[2]int]EdgeLabel)}
	pos := make(map[string]int, len(ordering))
	for i, v := range ordering {
		pos[v] = i
	}
	orderPos := func(v string) int32 {
		if p, ok := pos[v]; ok {
			return int32(p)
		}
		return int32(len(ordering)) // unordered views last
	}
	add := func(e strategy.Expr, prio int32) {
		k := e.Key()
		if _, ok := eg.index[k]; ok {
			return
		}
		eg.index[k] = len(eg.nodes)
		eg.nodes = append(eg.nodes, e)
		eg.deps.prio = append(eg.deps.prio, prio)
		eg.deps.indeg = append(eg.deps.indeg, 0)
		eg.deps.head = append(eg.deps.head, -1)
	}
	// Nodes: Inst(V) for every view; Comp(Vj,{Vi}) for every VDAG edge. The
	// priority drives the deterministic topological sort: expressions that
	// touch earlier-ordered views come first, a Comp just before the Inst
	// of the view it propagates.
	for _, v := range g.Views() {
		add(strategy.Inst{View: v}, orderPos(v)*2+1)
	}
	for _, v := range g.Views() {
		for _, c := range g.Children(v) {
			add(strategy.Comp{View: v, Over: []string{c}}, orderPos(c)*2)
		}
	}
	for _, v := range g.Views() {
		children := g.Children(v)
		// Ordering edges between this view's Comps (line 3–5 of
		// ConstructEG) and the induced C4 edges (lines 8–9).
		for _, ci := range children {
			for _, cj := range children {
				if ci == cj {
					continue
				}
				pi, iok := pos[ci]
				pj, jok := pos[cj]
				if !iok || !jok || pi >= pj {
					continue
				}
				later := strategy.Comp{View: v, Over: []string{cj}}
				eg.addDep(later, strategy.Comp{View: v, Over: []string{ci}}, LabelOrder)
				eg.addDep(later, strategy.Inst{View: ci}, LabelC4)
			}
		}
		for _, c := range children {
			comp := strategy.Comp{View: v, Over: []string{c}}
			// C3 (lines 6–7): Inst(child) after the Comp that reads δchild.
			eg.addDep(strategy.Inst{View: c}, comp, LabelC3)
			// C5 (lines 10–11): Inst(V) after every Comp of V.
			eg.addDep(strategy.Inst{View: v}, comp, LabelC5)
			// C8 (lines 12–13): Comp(V,{c}) after every Comp(c,{·}).
			for _, gc := range g.Children(c) {
				eg.addDep(comp, strategy.Comp{View: c, Over: []string{gc}}, LabelC8)
			}
		}
	}
	if strong {
		// ConstructSEG: Inst(Vj) after Inst(Vi) whenever Vi precedes Vj in
		// the ordering, even without a shared parent.
		for i := 0; i < len(ordering); i++ {
			for j := i + 1; j < len(ordering); j++ {
				eg.addDep(strategy.Inst{View: ordering[j]}, strategy.Inst{View: ordering[i]}, LabelSEG)
			}
		}
	}
	return eg
}

// ConstructEG builds the expression graph EG(G, ordering) of Appendix B.
func ConstructEG(g *vdag.Graph, ordering []string) *ExprGraph {
	return construct(g, ordering, false)
}

// ConstructSEG builds the strong expression graph used by Prune: the EG
// plus Inst→Inst edges enforcing the install order of the ordering.
func ConstructSEG(g *vdag.Graph, ordering []string) *ExprGraph {
	return construct(g, ordering, true)
}

// IsAcyclic reports whether the graph admits a topological order.
func (eg *ExprGraph) IsAcyclic() bool {
	_, err := eg.TopoSort()
	return err == nil
}

// TopoSort returns a dependency-respecting order of the expressions (see
// depGraph.sort for the deterministic rule), or an error naming a cycle
// participant if none exists.
func (eg *ExprGraph) TopoSort() (strategy.Strategy, error) {
	n := len(eg.nodes)
	indeg := append([]int32(nil), eg.deps.indeg...)
	order := make([]int32, n)
	if eg.deps.sort(indeg, make([]int32, 0, n), order) != n {
		for i, d := range indeg {
			if d > 0 {
				return nil, fmt.Errorf("planner: expression graph is cyclic (e.g. around %s)", eg.nodes[i])
			}
		}
	}
	out := make(strategy.Strategy, n)
	for i, node := range order {
		out[i] = eg.nodes[node]
	}
	return out, nil
}

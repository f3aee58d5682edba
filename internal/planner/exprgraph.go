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
	"slices"

	"repro/internal/strategy"
	"repro/internal/vdag"
)

// ExprGraph is the expression graph EG(G, V⃗) of Section 5.2: nodes are the
// 1-way expressions of the VDAG; an edge X→Y means X must come after Y in any
// strategy the graph admits. Edges come from the view ordering (V), from the
// correctness conditions C3, C4, C5 and C8 (the proof notation of Appendix A)
// and, in a strong expression graph, from the install order (SEG).
type ExprGraph struct {
	sk   *skeleton
	deps depGraph
}

// skeleton is what every expression graph of one VDAG shares, whatever the
// ordering: the 1-way expressions as dense node ids — Inst(V) is node V (the
// view's graph id), Comp(V,{c}) node nViews+k for the k-th VDAG edge, in view
// then child order — and the C3/C5/C8 edges between them. It is compiled once
// per graph (vdag.Graph.Compiled), so once per catalog version for a
// warehouse's graph, and is read-only after.
type skeleton struct {
	g         *vdag.Graph
	nodes     []strategy.Expr
	nViews    int
	compOff   []int32   // per view: its Comp nodes (less nViews) are compOff[v] to compOff[v+1]−1, one per child in child order
	compView  []int32   // per Comp node (less nViews): the view it computes
	compOver  []int32   // per Comp node (less nViews): the child it propagates
	compsOver [][]int32 // per view: the Comp nodes propagating it
	static    depGraph  // the C3/C5/C8 edges; prio is nil
	// orderEdges is the most V and C4 edges an ordering adds.
	orderEdges int
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

// grown returns a copy of d's edges with room for extra more, and no prio.
func (d *depGraph) grown(extra int) depGraph {
	return depGraph{
		indeg: slices.Clone(d.indeg),
		head:  slices.Clone(d.head),
		to:    append(make([]int32, 0, len(d.to)+extra), d.to...),
		next:  append(make([]int32, 0, len(d.next)+extra), d.next...),
	}
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

// skeletonKey is the key the skeleton is compiled under (vdag.Graph.Compiled).
type skeletonKey struct{}

// skeletonOf returns g's skeleton, compiling it on first use.
func skeletonOf(g *vdag.Graph) *skeleton {
	return g.Compiled(skeletonKey{}, compileSkeleton).(*skeleton)
}

// compileSkeleton lays down g's 1-way expressions and the edges that hold
// under every ordering, following ConstructEG (Appendix B): C3 (lines 6–7),
// Inst(child) after the Comp that reads δchild; C5 (lines 10–11), Inst(V)
// after every Comp of V; C8 (lines 12–13), Comp(V,{c}) after every
// Comp(c,{·}).
func compileSkeleton(g *vdag.Graph) any {
	n := g.Len()
	sk := &skeleton{g: g, nViews: n, compOff: make([]int32, n+1), compsOver: make([][]int32, n)}
	for v := int32(0); v < int32(n); v++ {
		k := len(g.ChildIDs(v))
		sk.compOff[v+1] = sk.compOff[v] + int32(k)
		sk.orderEdges += k * (k - 1) // a V and a C4 edge per pair of children
	}
	nodes := n + int(sk.compOff[n])
	sk.nodes = make([]strategy.Expr, 0, nodes)
	for v := int32(0); v < int32(n); v++ {
		sk.nodes = append(sk.nodes, strategy.Inst{View: g.Name(v)})
	}
	for v := int32(0); v < int32(n); v++ {
		for _, c := range g.ChildIDs(v) {
			sk.compsOver[c] = append(sk.compsOver[c], int32(len(sk.nodes)))
			sk.compView, sk.compOver = append(sk.compView, v), append(sk.compOver, c)
			sk.nodes = append(sk.nodes, strategy.Comp{View: g.Name(v), Over: []string{g.Name(c)}})
		}
	}
	d := &sk.static
	d.indeg, d.head = make([]int32, nodes), make([]int32, nodes)
	for i := range d.head {
		d.head[i] = -1
	}
	for k, v := range sk.compView {
		comp, c := int32(n+k), sk.compOver[k]
		d.addDep(c, comp) // C3
		d.addDep(v, comp) // C5
		for gk := sk.compOff[c]; gk < sk.compOff[c+1]; gk++ {
			d.addDep(comp, int32(n)+gk) // C8
		}
	}
	return sk
}

// comp returns the node of Comp(v,{the i-th child of v}).
func (sk *skeleton) comp(v int32, i int) int32 { return int32(sk.nViews) + sk.compOff[v] + int32(i) }

// construct builds the expression graph of g with respect to ordering,
// following ConstructEG (Appendix B): the skeleton's C3/C5/C8 edges, and the
// ordering edges between each view's Comps (lines 3–5) with the C4 edges they
// induce (lines 8–9). ordering must contain every view that some Comp
// propagates (i.e., every view with a parent); views missing from the
// ordering are unconstrained by ordering edges. strong adds the Inst→Inst
// edges of ConstructSEG, which force the produced strategy to be *strongly*
// consistent with the ordering.
func construct(g *vdag.Graph, ordering []string, strong bool) *ExprGraph {
	sk := skeletonOf(g)
	n := sk.nViews
	pos := make([]int32, n)
	for v := range pos {
		pos[v] = -1 // unordered
	}
	for i, name := range ordering {
		if v, ok := g.ID(name); ok {
			pos[v] = int32(i)
		}
	}
	extra := sk.orderEdges
	if strong {
		extra += len(ordering) * (len(ordering) - 1) / 2
	}
	eg := &ExprGraph{sk: sk, deps: sk.static.grown(extra)}
	d := &eg.deps
	// The priority drives the deterministic topological sort: expressions
	// that touch earlier-ordered views come first, a Comp just before the
	// Inst of the view it propagates; unordered views last.
	orderPos := func(v int32) int32 {
		if pos[v] >= 0 {
			return pos[v]
		}
		return int32(len(ordering))
	}
	d.prio = make([]int32, len(sk.nodes))
	for v := int32(0); v < int32(n); v++ {
		d.prio[v] = orderPos(v)*2 + 1
	}
	for k, c := range sk.compOver {
		d.prio[n+k] = orderPos(c) * 2
	}
	for v := int32(0); v < int32(n); v++ {
		children := g.ChildIDs(v)
		for i, ci := range children {
			for j, cj := range children {
				if pi, pj := pos[ci], pos[cj]; i == j || pi < 0 || pj < 0 || pi >= pj {
					continue
				}
				later := sk.comp(v, j)
				d.addDep(later, sk.comp(v, i)) // V
				d.addDep(later, ci)            // C4
			}
		}
	}
	if strong {
		// ConstructSEG: Inst(Vj) after Inst(Vi) whenever Vi precedes Vj in
		// the ordering, even without a shared parent.
		for i, earlier := range ordering {
			for _, later := range ordering[i+1:] {
				e, eok := g.ID(earlier)
				l, lok := g.ID(later)
				if eok && lok {
					d.addDep(l, e) // SEG
				}
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
	n := len(eg.sk.nodes)
	scratch := make([]int32, 3*n)
	indeg, order := scratch[:n], scratch[2*n:]
	copy(indeg, eg.deps.indeg)
	if eg.deps.sort(indeg, scratch[n:n:2*n], order) != n {
		for i, d := range indeg {
			if d > 0 {
				return nil, fmt.Errorf("planner: expression graph is cyclic (e.g. around %s)", eg.sk.nodes[i])
			}
		}
	}
	out := make(strategy.Strategy, n)
	for i, node := range order {
		out[i] = eg.sk.nodes[node]
	}
	return out, nil
}

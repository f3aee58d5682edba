// Package vdag models the view directed acyclic graph (VDAG) of Section 2
// of the paper: nodes are materialized views; an edge Vj → Vi means Vj is
// defined over Vi. Views with no outgoing edges are base views; the rest are
// derived views. The package computes Level values, classifies tree VDAGs
// and uniform VDAGs (the classes for which MinWork is provably optimal,
// Lemmas 5.1 and 5.2), and provides the orderings the planners need.
package vdag

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Graph is an immutable-after-build VDAG. Its views are interned to dense
// ids in insertion order — a topological order, so a view's children have
// smaller ids than it — and the adjacency and levels are kept over those ids:
// the form the planner, the validator and the scheduler read, with no map
// lookups by name and no slice copies. The name-keyed methods below answer
// from the same arrays.
type Graph struct {
	names    []string
	ids      map[string]int32
	children [][]int32 // view -> views it is defined over, in the order given
	parents  [][]int32 // view -> views defined over it, in id order
	level    []int32
	maxLevel int
	// compiled holds what other packages compile from the graph alone
	// (Compiled), keyed by the key they pass.
	compiled sync.Map
}

// Builder accumulates views and edges for a Graph.
type Builder struct {
	names    []string
	children map[string][]string
	seen     map[string]bool
}

// NewBuilder starts an empty VDAG.
func NewBuilder() *Builder {
	return &Builder{children: make(map[string][]string), seen: make(map[string]bool)}
}

// Add registers a view with the (distinct, ordered) views it is defined
// over; base views pass an empty list. Children must have been added before
// their parents, so insertion order is always a topological order.
func (b *Builder) Add(view string, over []string) error {
	if view == "" {
		return fmt.Errorf("vdag: empty view name")
	}
	if b.seen[view] {
		return fmt.Errorf("vdag: view %q added twice", view)
	}
	dup := make(map[string]bool)
	for _, c := range over {
		if !b.seen[c] {
			return fmt.Errorf("vdag: view %q defined over unknown view %q (children must be added first)", view, c)
		}
		if dup[c] {
			return fmt.Errorf("vdag: view %q lists child %q twice", view, c)
		}
		dup[c] = true
	}
	b.seen[view] = true
	b.names = append(b.names, view)
	b.children[view] = append([]string(nil), over...)
	return nil
}

// Build finalizes the graph.
func (b *Builder) Build() *Graph {
	n := len(b.names)
	g := &Graph{
		names:    append([]string(nil), b.names...),
		ids:      make(map[string]int32, n),
		children: make([][]int32, n),
		parents:  make([][]int32, n),
		level:    make([]int32, n),
	}
	for i, name := range g.names {
		g.ids[name] = int32(i)
	}
	for v, name := range g.names {
		for _, c := range b.children[name] {
			g.children[v] = append(g.children[v], g.ids[c])
		}
	}
	// Level(V) = max distance to a base view; ids are topological so one
	// pass suffices.
	for v, cs := range g.children {
		var l int32
		for _, c := range cs {
			g.parents[c] = append(g.parents[c], int32(v))
			l = max(l, g.level[c]+1)
		}
		g.level[v] = l
		g.maxLevel = max(g.maxLevel, int(l))
	}
	return g
}

// MustBuild builds a Graph from (view, children) pairs, panicking on error;
// convenient for tests and static examples.
func MustBuild(pairs ...[2]interface{}) *Graph {
	b := NewBuilder()
	for _, p := range pairs {
		name := p[0].(string)
		var over []string
		if p[1] != nil {
			over = p[1].([]string)
		}
		if err := b.Add(name, over); err != nil {
			panic(err)
		}
	}
	return b.Build()
}

// Len returns the number of views; their ids are 0 through Len()−1.
func (g *Graph) Len() int { return len(g.names) }

// ID returns the view's id, and false for a view the graph does not have.
func (g *Graph) ID(view string) (int32, bool) {
	id, ok := g.ids[view]
	return id, ok
}

// Name returns the name of view id.
func (g *Graph) Name(id int32) string { return g.names[id] }

// ChildIDs returns the ids of the views view id is defined over. The slice
// is the graph's own: read it, do not write it.
func (g *Graph) ChildIDs(id int32) []int32 { return g.children[id] }

// ParentIDs returns the ids of the views defined directly over view id, in
// id order. The slice is the graph's own: read it, do not write it.
func (g *Graph) ParentIDs(id int32) []int32 { return g.parents[id] }

// Compiled returns what compile made of g for key, calling it the first time
// key is asked for. It is where a package keeps what it derives from the VDAG
// alone — the planner's expression-graph skeleton — so that it is derived
// once per graph, and a warehouse's graph is built once per catalog version
// and shared by its clones. key is a value of a type of the caller's own, as
// with context keys; the result must not be written to. Safe for concurrent
// use: callers that race on a first use may each compile, and all get the
// first result stored.
func (g *Graph) Compiled(key any, compile func(*Graph) any) any {
	if v, ok := g.compiled.Load(key); ok {
		return v
	}
	v, _ := g.compiled.LoadOrStore(key, compile(g))
	return v
}

// namesOf returns the names of the views in ids, in that order.
func (g *Graph) namesOf(ids []int32) []string {
	if len(ids) == 0 {
		return nil
	}
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = g.names[id]
	}
	return out
}

// Views returns all view names in topological (insertion) order.
func (g *Graph) Views() []string { return append([]string(nil), g.names...) }

// Has reports whether the view exists.
func (g *Graph) Has(view string) bool { _, ok := g.ids[view]; return ok }

// Children returns the views the given view is defined over.
func (g *Graph) Children(view string) []string {
	if id, ok := g.ids[view]; ok {
		return g.namesOf(g.children[id])
	}
	return nil
}

// Parents returns the views defined directly over the given view.
func (g *Graph) Parents(view string) []string {
	if id, ok := g.ids[view]; ok {
		return g.namesOf(g.parents[id])
	}
	return nil
}

// IsBase reports whether the view has no children (defined over sources).
func (g *Graph) IsBase(view string) bool { return !g.IsDerived(view) }

// IsDerived reports whether the view is defined over warehouse views.
func (g *Graph) IsDerived(view string) bool {
	id, ok := g.ids[view]
	return ok && len(g.children[id]) > 0
}

// BaseViews returns all base views in topological order.
func (g *Graph) BaseViews() []string {
	var out []string
	for v, cs := range g.children {
		if len(cs) == 0 {
			out = append(out, g.names[v])
		}
	}
	return out
}

// DerivedViews returns all derived views in topological order.
func (g *Graph) DerivedViews() []string {
	var out []string
	for v, cs := range g.children {
		if len(cs) > 0 {
			out = append(out, g.names[v])
		}
	}
	return out
}

// Level returns Level(V): the maximum distance from V to a base view.
func (g *Graph) Level(view string) int {
	if id, ok := g.ids[view]; ok {
		return int(g.level[id])
	}
	return 0
}

// MaxLevel returns the maximum Level of any view.
func (g *Graph) MaxLevel() int { return g.maxLevel }

// ViewsWithParents returns, in topological order, the views that have at
// least one view defined over them. These are the m views whose install
// position matters; Prune's search is over orderings of exactly this set
// (the m! optimization of Section 6).
func (g *Graph) ViewsWithParents() []string {
	var out []string
	for v, ps := range g.parents {
		if len(ps) > 0 {
			out = append(out, g.names[v])
		}
	}
	return out
}

// IsTree reports whether the VDAG is a tree VDAG (Definition 5.1): no view
// is used in the definition of more than one other view.
func (g *Graph) IsTree() bool {
	for _, ps := range g.parents {
		if len(ps) > 1 {
			return false
		}
	}
	return true
}

// IsUniform reports whether the VDAG is a uniform VDAG (Definition 5.2):
// every derived view at Level i is defined only over views at Level i−1.
func (g *Graph) IsUniform() bool {
	for v, cs := range g.children {
		for _, c := range cs {
			if g.level[c] != g.level[v]-1 {
				return false
			}
		}
	}
	return true
}

// Ancestors returns every view transitively reachable from view through
// child edges (i.e., the views it directly or indirectly depends on).
func (g *Graph) Ancestors(view string) []string { return g.reach(view, g.children) }

// Descendants returns every view that transitively depends on view.
func (g *Graph) Descendants(view string) []string { return g.reach(view, g.parents) }

// reach returns, in topological order, the views reachable from view along
// the adjacency next (children or parents), view itself excluded.
func (g *Graph) reach(view string, next [][]int32) []string {
	id, ok := g.ids[view]
	if !ok {
		return []string{}
	}
	seen := make([]bool, len(g.names))
	var walk func(int32)
	walk = func(v int32) {
		for _, u := range next[v] {
			if !seen[u] {
				seen[u] = true
				walk(u)
			}
		}
	}
	walk(id)
	out := []string{}
	for v, ok := range seen {
		if ok {
			out = append(out, g.names[v])
		}
	}
	return out
}

// SortByLevel stably sorts a copy of the given views by increasing Level,
// preserving the input's relative order within a level. This is exactly
// ModifyOrdering (Algorithm 5.2) applied to an arbitrary view ordering.
func (g *Graph) SortByLevel(views []string) []string {
	out := append([]string(nil), views...)
	sort.SliceStable(out, func(i, j int) bool { return g.Level(out[i]) < g.Level(out[j]) })
	return out
}

// Dot renders the VDAG in Graphviz dot format, edges pointing from each
// view to the views it is defined over (the paper's arrow convention).
func (g *Graph) Dot() string {
	var b strings.Builder
	b.WriteString("digraph VDAG {\n  rankdir=BT;\n")
	for v, n := range g.names {
		shape := "box"
		if len(g.children[v]) == 0 {
			shape = "ellipse"
		}
		fmt.Fprintf(&b, "  %q [shape=%s, label=\"%s\\nlevel %d\"];\n", n, shape, n, g.level[v])
	}
	for v, n := range g.names {
		for _, c := range g.children[v] {
			fmt.Fprintf(&b, "  %q -> %q;\n", n, g.names[c])
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// String renders the graph compactly for diagnostics.
func (g *Graph) String() string {
	s := ""
	for v, n := range g.names {
		if s != "" {
			s += "; "
		}
		s += n
		if cs := g.children[v]; len(cs) > 0 {
			s += " <- ("
			for i, c := range cs {
				if i > 0 {
					s += ", "
				}
				s += g.names[c]
			}
			s += ")"
		}
	}
	return s
}

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
)

// Graph is an immutable-after-build VDAG.
type Graph struct {
	names    []string            // insertion order
	children map[string][]string // view -> views it is defined over
	parents  map[string][]string // view -> views defined over it
	level    map[string]int
	maxLevel int
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
	g := &Graph{
		names:    append([]string(nil), b.names...),
		children: make(map[string][]string, len(b.names)),
		parents:  make(map[string][]string, len(b.names)),
		level:    make(map[string]int, len(b.names)),
	}
	for _, n := range b.names {
		g.children[n] = append([]string(nil), b.children[n]...)
	}
	for _, n := range g.names {
		for _, c := range g.children[n] {
			g.parents[c] = append(g.parents[c], n)
		}
	}
	// Level(V) = max distance to a base view; insertion order is
	// topological so one pass suffices.
	for _, n := range g.names {
		l := 0
		for _, c := range g.children[n] {
			if g.level[c]+1 > l {
				l = g.level[c] + 1
			}
		}
		g.level[n] = l
		if l > g.maxLevel {
			g.maxLevel = l
		}
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

// Views returns all view names in topological (insertion) order.
func (g *Graph) Views() []string { return append([]string(nil), g.names...) }

// Has reports whether the view exists.
func (g *Graph) Has(view string) bool { _, ok := g.children[view]; return ok }

// Children returns the views the given view is defined over.
func (g *Graph) Children(view string) []string {
	return append([]string(nil), g.children[view]...)
}

// Parents returns the views defined directly over the given view.
func (g *Graph) Parents(view string) []string {
	return append([]string(nil), g.parents[view]...)
}

// IsBase reports whether the view has no children (defined over sources).
func (g *Graph) IsBase(view string) bool { return len(g.children[view]) == 0 }

// IsDerived reports whether the view is defined over warehouse views.
func (g *Graph) IsDerived(view string) bool { return len(g.children[view]) > 0 }

// BaseViews returns all base views in topological order.
func (g *Graph) BaseViews() []string {
	var out []string
	for _, n := range g.names {
		if g.IsBase(n) {
			out = append(out, n)
		}
	}
	return out
}

// DerivedViews returns all derived views in topological order.
func (g *Graph) DerivedViews() []string {
	var out []string
	for _, n := range g.names {
		if g.IsDerived(n) {
			out = append(out, n)
		}
	}
	return out
}

// Level returns Level(V): the maximum distance from V to a base view.
func (g *Graph) Level(view string) int { return g.level[view] }

// MaxLevel returns the maximum Level of any view.
func (g *Graph) MaxLevel() int { return g.maxLevel }

// ViewsWithParents returns, in topological order, the views that have at
// least one view defined over them. These are the m views whose install
// position matters; Prune's search is over orderings of exactly this set
// (the m! optimization of Section 6).
func (g *Graph) ViewsWithParents() []string {
	var out []string
	for _, n := range g.names {
		if len(g.parents[n]) > 0 {
			out = append(out, n)
		}
	}
	return out
}

// IsTree reports whether the VDAG is a tree VDAG (Definition 5.1): no view
// is used in the definition of more than one other view.
func (g *Graph) IsTree() bool {
	for _, n := range g.names {
		if len(g.parents[n]) > 1 {
			return false
		}
	}
	return true
}

// IsUniform reports whether the VDAG is a uniform VDAG (Definition 5.2):
// every derived view at Level i is defined only over views at Level i−1.
func (g *Graph) IsUniform() bool {
	for _, n := range g.names {
		for _, c := range g.children[n] {
			if g.level[c] != g.level[n]-1 {
				return false
			}
		}
	}
	return true
}

// Ancestors returns every view transitively reachable from view through
// child edges (i.e., the views it directly or indirectly depends on).
func (g *Graph) Ancestors(view string) []string {
	seen := make(map[string]bool)
	var walk func(string)
	walk = func(v string) {
		for _, c := range g.children[v] {
			if !seen[c] {
				seen[c] = true
				walk(c)
			}
		}
	}
	walk(view)
	out := make([]string, 0, len(seen))
	for _, n := range g.names {
		if seen[n] {
			out = append(out, n)
		}
	}
	return out
}

// Descendants returns every view that transitively depends on view.
func (g *Graph) Descendants(view string) []string {
	seen := make(map[string]bool)
	var walk func(string)
	walk = func(v string) {
		for _, p := range g.parents[v] {
			if !seen[p] {
				seen[p] = true
				walk(p)
			}
		}
	}
	walk(view)
	out := make([]string, 0, len(seen))
	for _, n := range g.names {
		if seen[n] {
			out = append(out, n)
		}
	}
	return out
}

// SortByLevel stably sorts a copy of the given views by increasing Level,
// preserving the input's relative order within a level. This is exactly
// ModifyOrdering (Algorithm 5.2) applied to an arbitrary view ordering.
func (g *Graph) SortByLevel(views []string) []string {
	out := append([]string(nil), views...)
	sort.SliceStable(out, func(i, j int) bool { return g.level[out[i]] < g.level[out[j]] })
	return out
}

// Dot renders the VDAG in Graphviz dot format, edges pointing from each
// view to the views it is defined over (the paper's arrow convention).
func (g *Graph) Dot() string {
	var b strings.Builder
	b.WriteString("digraph VDAG {\n  rankdir=BT;\n")
	for _, n := range g.names {
		shape := "box"
		if g.IsBase(n) {
			shape = "ellipse"
		}
		fmt.Fprintf(&b, "  %q [shape=%s, label=\"%s\\nlevel %d\"];\n", n, shape, n, g.level[n])
	}
	for _, n := range g.names {
		for _, c := range g.children[n] {
			fmt.Fprintf(&b, "  %q -> %q;\n", n, c)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// String renders the graph compactly for diagnostics.
func (g *Graph) String() string {
	s := ""
	for _, n := range g.names {
		if s != "" {
			s += "; "
		}
		s += n
		if cs := g.children[n]; len(cs) > 0 {
			s += " <- ("
			for i, c := range cs {
				if i > 0 {
					s += ", "
				}
				s += c
			}
			s += ")"
		}
	}
	return s
}

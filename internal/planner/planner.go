package planner

import (
	"fmt"
	"sort"

	"repro/internal/cost"
	"repro/internal/strategy"
	"repro/internal/vdag"
)

// DesiredOrdering returns the paper's desired view ordering: the given
// views arranged by increasing |V′|−|V| (net growth), with view name as a
// deterministic tie-break.
func DesiredOrdering(views []string, stats cost.Stats) ([]string, error) {
	for _, v := range views {
		if _, ok := stats[v]; !ok {
			return nil, fmt.Errorf("planner: no statistics for view %q", v)
		}
	}
	out := append([]string(nil), views...)
	sort.SliceStable(out, func(i, j int) bool {
		gi, gj := stats[out[i]].NetGrowth(), stats[out[j]].NetGrowth()
		if gi != gj {
			return gi < gj
		}
		return out[i] < out[j]
	})
	return out, nil
}

// MinWorkSingle (Algorithm 4.1) returns an optimal view strategy for view
// under the linear work metric: the 1-way strategy that propagates and
// installs the children in increasing |V′|−|V| order (Theorems 4.1, 4.2).
// Runs in O(n log n).
func MinWorkSingle(view string, children []string, stats cost.Stats) (strategy.Strategy, error) {
	ordered, err := DesiredOrdering(children, stats)
	if err != nil {
		return nil, err
	}
	return strategy.OneWayView(view, ordered), nil
}

// MinWorkResult reports how MinWork arrived at its strategy.
type MinWorkResult struct {
	Strategy strategy.Strategy
	// DesiredOrdering is the ordering by increasing net growth.
	DesiredOrdering []string
	// UsedOrdering is the ordering actually used (equals DesiredOrdering
	// unless the EG was cyclic and ModifyOrdering was applied).
	UsedOrdering []string
	// Modified reports that the desired ordering yielded a cyclic EG and
	// the level-respecting modified ordering was used instead, in which
	// case the strategy may be sub-optimal (but is always correct).
	Modified bool
}

// MinWork (Algorithm 5.1) produces a 1-way VDAG strategy for g. The result
// is optimal over all VDAG strategies whenever the expression graph for the
// desired view ordering is acyclic — always for tree VDAGs and uniform
// VDAGs (Theorem 5.4) — and otherwise falls back to ModifyOrdering, which
// is guaranteed acyclic (Theorem 5.5). Worst-case O(n³) for EG
// construction.
func MinWork(g *vdag.Graph, stats cost.Stats) (MinWorkResult, error) {
	var res MinWorkResult
	desired, err := DesiredOrdering(orderableViews(g), stats)
	if err != nil {
		return res, err
	}
	res.DesiredOrdering = desired
	res.UsedOrdering = desired
	eg := ConstructEG(g, desired)
	s, err := eg.TopoSort()
	if err == nil {
		res.Strategy = s
		return res, nil
	}
	modified := ModifyOrdering(g, desired)
	res.UsedOrdering = modified
	res.Modified = true
	eg = ConstructEG(g, modified)
	s, err = eg.TopoSort()
	if err != nil {
		// Theorem 5.5 guarantees this cannot happen; if it does the graph
		// construction is broken, so surface it loudly.
		return res, fmt.Errorf("planner: modified ordering still cyclic: %w", err)
	}
	res.Strategy = s
	return res, nil
}

// ModifyOrdering (Algorithm 5.2) reorders the given view ordering by
// increasing Level, preserving the relative order of views within a level.
// The resulting ordering always yields an acyclic expression graph
// (Theorem 5.5).
func ModifyOrdering(g *vdag.Graph, ordering []string) []string {
	return g.SortByLevel(ordering)
}

// orderableViews returns the views whose position in an ordering matters:
// those with at least one parent (Section 6's optimization). Views with
// no parents never appear in another view's Comp, so their installs are
// placed freely by the topological sort.
func orderableViews(g *vdag.Graph) []string { return g.ViewsWithParents() }

// PruneResult reports the outcome of a Prune search.
type PruneResult struct {
	Strategy strategy.Strategy
	Work     float64
	// Ordering is the view ordering (over views with parents) whose
	// partition the winning strategy belongs to.
	Ordering []string
	// Examined is the search's effort: the prefixes of orderings it priced,
	// cut or extended. Feasible counts the complete orderings that reached
	// the full check — sort, cycle test, simulation — and had an acyclic
	// strong expression graph. Neither counts the m! orderings of the space:
	// most are never completed.
	Examined, Feasible int
}

// Prune (Algorithm 6.1) searches over view orderings, evaluating one
// representative 1-way VDAG strategy per ordering (Theorem 6.1: all
// strategies strongly consistent with the same ordering incur equal work),
// and returns the cheapest, the first in strategy.Permutations order winning
// ties. Orderings whose strong expression graph is cyclic admit no strongly
// consistent strategy and are skipped. Only the m views with parents are
// ordered (Section 6's optimization), and the search is the paper's
// "exhaustive but pruned": by the same theorem an ordering's work is a sum
// over its views of a term that depends only on the set of views placed
// before each, so the least cost of completing every set is tabulated once
// (2^m·m terms) and a prefix that cannot beat the best ordering so far is
// not extended (search.go). More than maxSearchViews views with parents is an
// error. A model without coefficients is cost.DefaultModel.
func Prune(g *vdag.Graph, model cost.Model, stats cost.Stats, refs cost.RefCounts) (PruneResult, error) {
	s, err := compileSearch(g, model, stats, refs)
	if err != nil {
		return PruneResult{Work: -1}, err
	}
	res := s.run()
	if res.Feasible == 0 {
		return res, fmt.Errorf("planner: no feasible ordering found (impossible for a well-formed VDAG)")
	}
	return res, nil
}

// PruneShared is inert — it returns Prune's result and ignores opts; it stays
// because the frozen benchmark (bench/layers.go) calls it. ROADMAP item 25
// deletes it.
func PruneShared(g *vdag.Graph, model cost.Model, stats cost.Stats, refs cost.RefCounts, _ SharedSearchOptions) (PruneResult, error) {
	return Prune(g, model, stats, refs)
}

// SharedSearchOptions is inert — PruneShared reads none of it; it stays
// because the frozen benchmark (bench/layers.go) sets it. ROADMAP item 25
// deletes it.
type SharedSearchOptions struct {
	Refs    any
	Sharing SharingOptions
}

// SharingOptions is inert — nothing reads it; it stays because the frozen
// benchmark (bench/layers.go) sets it. ROADMAP item 25 deletes it.
type SharingOptions struct {
	Width, Pairs, Tuner any
}

// BestViewStrategy exhaustively evaluates every correct view strategy for a
// single view (one representative per ordered partition of the children)
// under the linear work metric and returns the cheapest. Exponential in the
// number of children; it is the oracle MinWorkSingle is tested against and
// the generator behind the paper's Figure 12.
func BestViewStrategy(g *vdag.Graph, view string, model cost.Model, stats cost.Stats, refs cost.RefCounts) (strategy.Strategy, float64, error) {
	children := g.Children(view)
	if len(children) == 0 {
		return nil, 0, fmt.Errorf("planner: %q is a base view", view)
	}
	var best strategy.Strategy
	bestW := -1.0
	for _, s := range strategy.EnumerateViewStrategies(view, children) {
		w, err := cost.Work(model, stats, refs, s)
		if err != nil {
			return nil, 0, err
		}
		if bestW < 0 || w < bestW {
			bestW, best = w, s
		}
	}
	return best, bestW, nil
}

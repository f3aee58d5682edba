package exec

import (
	"fmt"
	"slices"

	"repro/internal/strategy"
	"repro/internal/vdag"
)

// This file implements the conflict analysis of Section 9 of the paper,
// where VDAG strategies are modeled as sequences of expression *sets* whose
// members run against the database concurrently.
//
// Expression F must wait for an earlier expression E iff they touch
// overlapping state (E installs a view F reads, E produces a delta F
// consumes, or both write the same pending delta). BuildDAG keeps that
// relation as precedence edges; collapsing the edges into stage numbers
// (StagedPlan) gives the paper's barrier plan, in which every expression of
// stage k waits for the *slowest* expression of stage k−1 even when its own
// predecessors finished long ago. Non-conflicting expressions read shared
// tables and write disjoint state, so they are safe to run concurrently
// either way; barrier-free scheduling approaches the critical path rather
// than the sum of stage maxima.

// Stage is a set of expressions that may execute concurrently.
type Stage []strategy.Expr

// Plan is a sequence of stages.
type Plan []Stage

// String renders the plan stage by stage.
func (p Plan) String() string {
	s := ""
	for i, st := range p {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("[%d:", i+1)
		for _, e := range st {
			s += " " + e.String()
		}
		s += "]"
	}
	return s
}

// mustWait reports whether expression b of the resolved strategy conflicts
// with earlier expression a and so must wait for it; g is the graph it was
// resolved against.
func mustWait(r *strategy.Resolved, g *vdag.Graph, a, b int32) bool {
	ka, kb := r.Kind(a), r.Kind(b)
	va, vb := r.View(a), r.View(b)
	uses := func(p, v int32) bool { return slices.Contains(r.Over(p), v) }
	switch {
	case ka == strategy.OtherExpr || kb == strategy.OtherExpr:
		return false
	case ka == strategy.InstExpr && kb == strategy.InstExpr:
		return va == vb
	case ka == strategy.InstExpr:
		// The Comp reads the state (or delta) of every referenced view, and
		// Inst(V) consumes the δV that Comp(V,·) writes.
		return vb == va || int(vb) < g.Len() && slices.Contains(g.ChildIDs(vb), va)
	case kb == strategy.InstExpr:
		// Inst(V) after Comp(V,·) (consumes its output); Inst(X) after
		// Comp(·,{…X…}) (C3: the Comp reads δX before it is folded in).
		return vb == va || uses(a, vb)
	}
	// Both write δ(View), or C8: a Comp consuming δX waits for the Comps
	// producing it.
	return va == vb || uses(b, va) || uses(a, vb)
}

// DAG is the precedence graph of a correct sequential strategy: node i is
// the strategy's i-th expression; an edge j→i (j < i) means expression i
// conflicts with earlier expression j and must wait for it. Because edges
// only point from lower to higher strategy positions, the graph is acyclic
// by construction. Its edges are kept flat: node i's predecessors are
// pred[predOff[i]:predOff[i+1]], its successors likewise.
type DAG struct {
	exprs         strategy.Strategy
	predOff, pred []int32 // nodes i waits for (each < i), ascending
	succOff, succ []int32 // nodes waiting for j (each > j), ascending
	level         []int   // barrier-stage index: 1 + max level over preds
	widths        []int   // widths[l]: number of nodes at level l
}

// BuildDAG converts a correct sequential strategy into its precedence DAG,
// resolving its views against g, the warehouse's VDAG. The edge set is the
// full conflict relation (no transitive reduction): redundant edges do not
// change the schedule, only the in-degree bookkeeping.
func BuildDAG(s strategy.Strategy, g *vdag.Graph) *DAG {
	n := len(s)
	r := strategy.Resolve(g, s)
	d := &DAG{
		exprs:   s.Clone(),
		predOff: make([]int32, n+1),
		pred:    make([]int32, 0, 8*n),
		succOff: make([]int32, n+1),
		level:   make([]int, n),
		widths:  make([]int, 0, n),
	}
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			if mustWait(&r, g, int32(j), int32(i)) {
				d.pred = append(d.pred, int32(j))
				d.succOff[j+1]++
				d.level[i] = max(d.level[i], d.level[j]+1)
			}
		}
		d.predOff[i+1] = int32(len(d.pred))
		for len(d.widths) <= d.level[i] {
			d.widths = append(d.widths, 0)
		}
		d.widths[d.level[i]]++
	}
	for j := 0; j < n; j++ {
		d.succOff[j+1] += d.succOff[j]
	}
	d.succ = make([]int32, len(d.pred))
	fill := slices.Clone(d.succOff[:n])
	for i := 0; i < n; i++ {
		for _, j := range d.preds(i) {
			d.succ[fill[j]] = int32(i)
			fill[j]++
		}
	}
	return d
}

// Parallelize converts a correct sequential strategy into a staged plan:
// each expression lands in the earliest stage after all earlier conflicting
// expressions. The sequential semantics are preserved exactly.
func Parallelize(s strategy.Strategy, g *vdag.Graph) Plan {
	return BuildDAG(s, g).StagedPlan()
}

// preds returns the nodes node i waits for.
func (d *DAG) preds(i int) []int32 { return d.pred[d.predOff[i]:d.predOff[i+1]] }

// succs returns the nodes waiting for node j.
func (d *DAG) succs(j int) []int32 { return d.succ[d.succOff[j]:d.succOff[j+1]] }

// Len returns the number of expressions (nodes).
func (d *DAG) Len() int { return len(d.exprs) }

// Expr returns the i-th expression.
func (d *DAG) Expr(i int) strategy.Expr { return d.exprs[i] }

// Levels returns the number of barrier stages (the plan depth).
func (d *DAG) Levels() int { return len(d.widths) }

// width returns the number of nodes at level l (0 past the last level).
func (d *DAG) width(l int) int {
	if l >= len(d.widths) {
		return 0
	}
	return d.widths[l]
}

// StagedPlan collapses the DAG to the barrier plan: expressions grouped by
// level, in strategy order within a level.
func (d *DAG) StagedPlan() Plan {
	plan := make(Plan, d.Levels())
	for i, e := range d.exprs {
		plan[d.level[i]] = append(plan[d.level[i]], e)
	}
	return plan
}

// spanWork computes the barrier-plan span from measured per-node work: the
// sum over levels of the largest single-node work in the level.
func (d *DAG) spanWork(work []int64) int64 {
	maxAt := make([]int64, d.Levels())
	for i := range d.exprs {
		if work[i] > maxAt[d.level[i]] {
			maxAt[d.level[i]] = work[i]
		}
	}
	var span int64
	for _, m := range maxAt {
		span += m
	}
	return span
}

// criticalPathWork computes the longest work-weighted path through the DAG
// from measured per-node work — the update window a barrier-free schedule
// approaches with unlimited workers. Nodes are in topological (strategy)
// order, so one forward pass suffices.
func (d *DAG) criticalPathWork(work []int64) int64 {
	cp := make([]int64, d.Len())
	var longest int64
	for i := range d.exprs {
		var best int64
		for _, j := range d.preds(i) {
			if cp[j] > best {
				best = cp[j]
			}
		}
		cp[i] = best + work[i]
		if cp[i] > longest {
			longest = cp[i]
		}
	}
	return longest
}

package exec

import (
	"fmt"

	"repro/internal/strategy"
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

// Stages returns the number of stages (the depth of the plan).
func (p Plan) Stages() int { return len(p) }

// Exprs returns the total number of expressions.
func (p Plan) Exprs() int {
	n := 0
	for _, st := range p {
		n += len(st)
	}
	return n
}

// conflicts reports whether expression b must wait for earlier expression a;
// children resolves the views a derived view is defined over.
func conflicts(a, b strategy.Expr, children func(view string) []string) bool {
	switch x := a.(type) {
	case strategy.Inst:
		switch y := b.(type) {
		case strategy.Inst:
			return x.View == y.View
		case strategy.Comp:
			// The Comp reads the state (or delta) of every referenced view.
			for _, c := range children(y.View) {
				if c == x.View {
					return true
				}
			}
			return y.View == x.View // Inst(V) consumes δV that Comp(V,·) writes
		}
	case strategy.Comp:
		switch y := b.(type) {
		case strategy.Inst:
			// Inst(V) after Comp(V,·) (consumes its output); Inst(X) after
			// Comp(·,{…X…}) (C3: the Comp reads δX before it is folded in).
			if y.View == x.View {
				return true
			}
			return x.Uses(y.View)
		case strategy.Comp:
			if x.View == y.View {
				return true // both write δ(View)
			}
			// C8: a Comp consuming δX waits for the Comps producing it.
			return y.Uses(x.View) || x.Uses(y.View)
		}
	}
	return false
}

// DAG is the precedence graph of a correct sequential strategy: node i is
// the strategy's i-th expression; an edge j→i (j < i) means expression i
// conflicts with earlier expression j and must wait for it. Because edges
// only point from lower to higher strategy positions, the graph is acyclic
// by construction.
type DAG struct {
	exprs  strategy.Strategy
	preds  [][]int // preds[i]: nodes i waits for (each < i)
	succs  [][]int // succs[j]: nodes waiting for j (each > j)
	level  []int   // barrier-stage index: 1 + max level over preds
	widths []int   // widths[l]: number of nodes at level l
}

// BuildDAG converts a correct sequential strategy into its precedence DAG.
// The edge set is the full conflict relation (no transitive reduction):
// redundant edges do not change the schedule, only the in-degree
// bookkeeping.
func BuildDAG(s strategy.Strategy, children func(view string) []string) *DAG {
	n := len(s)
	d := &DAG{
		exprs: s.Clone(),
		preds: make([][]int, n),
		succs: make([][]int, n),
		level: make([]int, n),
	}
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			if conflicts(s[j], s[i], children) {
				d.preds[i] = append(d.preds[i], j)
				d.succs[j] = append(d.succs[j], i)
				if d.level[j]+1 > d.level[i] {
					d.level[i] = d.level[j] + 1
				}
			}
		}
		for len(d.widths) <= d.level[i] {
			d.widths = append(d.widths, 0)
		}
		d.widths[d.level[i]]++
	}
	return d
}

// Parallelize converts a correct sequential strategy into a staged plan:
// each expression lands in the earliest stage after all earlier conflicting
// expressions. The sequential semantics are preserved exactly.
func Parallelize(s strategy.Strategy, children func(view string) []string) Plan {
	return BuildDAG(s, children).StagedPlan()
}

// Len returns the number of expressions (nodes).
func (d *DAG) Len() int { return len(d.exprs) }

// Expr returns the i-th expression.
func (d *DAG) Expr(i int) strategy.Expr { return d.exprs[i] }

// HasEdge reports whether node i waits for node j.
func (d *DAG) HasEdge(j, i int) bool {
	for _, p := range d.preds[i] {
		if p == j {
			return true
		}
	}
	return false
}

// Level returns the barrier-stage index of node i.
func (d *DAG) Level(i int) int { return d.level[i] }

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

// Acyclic verifies by Kahn's algorithm that every node is reachable through
// in-degree-zero elimination. BuildDAG guarantees this (edges point forward
// in strategy order); the check backs the fuzz harness.
func (d *DAG) Acyclic() bool {
	n := d.Len()
	indeg := make([]int, n)
	var queue []int
	for i := 0; i < n; i++ {
		indeg[i] = len(d.preds[i])
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	removed := 0
	for len(queue) > 0 {
		j := queue[0]
		queue = queue[1:]
		removed++
		for _, i := range d.succs[j] {
			indeg[i]--
			if indeg[i] == 0 {
				queue = append(queue, i)
			}
		}
	}
	return removed == n
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
		for _, j := range d.preds[i] {
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

package planner

import (
	"fmt"
	"slices"

	"repro/internal/cost"
	"repro/internal/strategy"
	"repro/internal/vdag"
)

// search is the compiled form of one Prune / PruneShared search. What no
// ordering changes is resolved once: expressions are dense ids (ConstructEG's
// node ids: Inst(V) per view, then Comp(V,{c}) per VDAG edge), the C3/C5/C8
// edges are laid down, and each Comp's linear work is tabulated per child and
// install state. Evaluating an ordering adds its V/C4/SEG edges, sorts and
// simulates against reused scratch, allocating nothing.
type search struct {
	nodes     []strategy.Expr
	nViews    int
	compView  []int32   // per Comp node (less nViews): the view it computes
	compOver  []int32   // per Comp node (less nViews): the child it propagates
	compsOver [][]int32 // per view: the Comp nodes propagating it

	deps    depGraph
	nStatic int     // edges that hold under every ordering
	indeg0  []int32 // deps.indeg and deps.head with only those edges
	head0   []int32

	model    cost.Model // normalised: never without coefficients
	instWork []float64
	terms    []workTerm
	termOff  []int32 // Comp node (less nViews) -> terms[termOff[k]:termOff[k+1]]

	ord       []int32 // the ordering under evaluation: views with parents
	out       []int32 // its strategy, as node ids
	ready     []int32
	lastComp  []int32 // per view: its latest Comp along ord
	installed []uint8
}

// workTerm is what one referenced child adds to a Comp (cost.Model.RefWork),
// indexed by whether the child is installed.
type workTerm struct {
	view        int32
	scan, spill [2]float64
}

// compileSearch interns g and prices its expressions. A model with neither a
// compute nor an install coefficient is read as cost.DefaultModel's (budget
// and spill coefficient kept), so work and sharing savings are priced alike.
func compileSearch(g *vdag.Graph, model cost.Model, stats cost.Stats, refs cost.RefCounts) (*search, error) {
	if model.CompCoeff == 0 && model.InstCoeff == 0 {
		model.CompCoeff, model.InstCoeff = cost.DefaultModel.CompCoeff, cost.DefaultModel.InstCoeff
	}
	eg := construct(g, nil, false) // no ordering: the nodes and the C3/C5/C8 edges
	// Priced once by the general simulator, which rejects missing statistics
	// and reference counts with the errors callers know.
	if _, err := cost.Work(model, stats, refs, eg.nodes); err != nil {
		return nil, err
	}
	views := g.Views()
	n := len(views)
	s := &search{nodes: eg.nodes, nViews: n, deps: eg.deps, model: model, compsOver: make([][]int32, n), termOff: []int32{0}}
	for _, v := range views {
		s.instWork = append(s.instWork, model.InstCoeff*float64(stats[v].DeltaSize()))
	}
	for _, v := range orderableViews(g) {
		s.ord = append(s.ord, int32(eg.nodeID(strategy.Inst{View: v})))
	}
	for node := n; node < len(s.nodes); node++ {
		x := s.nodes[node].(strategy.Comp)
		v, c := eg.nodeID(strategy.Inst{View: x.View}), eg.nodeID(strategy.Inst{View: x.Over[0]})
		s.compView, s.compOver = append(s.compView, int32(v)), append(s.compOver, int32(c))
		s.compsOver[c] = append(s.compsOver[c], int32(node))
		rc := refs[x.View]
		r, found := rc[x.Over[0]], 0 // r: the Comp's delta-bound references
		for ci, child := range views {
			nref, ok := rc[child]
			if !ok {
				continue
			}
			found++
			st, t := stats[child], workTerm{view: int32(ci)}
			t.scan[0], t.spill[0] = model.RefWork(nref, r, ci == c, st.Size, st.DeltaSize())
			t.scan[1], t.spill[1] = model.RefWork(nref, r, ci == c, st.SizeAfter(), st.DeltaSize())
			s.terms = append(s.terms, t)
		}
		if found != len(rc) {
			return nil, fmt.Errorf("planner: %q references a view the VDAG does not have", x.View)
		}
		s.termOff = append(s.termOff, int32(len(s.terms)))
	}
	for i := range s.deps.prio {
		s.deps.prio[i] = int32(2*len(s.ord) + 1) // views no ordering lists install last
	}
	s.nStatic = len(s.deps.to)
	s.indeg0 = slices.Clone(s.deps.indeg)
	s.head0 = slices.Clone(s.deps.head)
	// Room for one ordering's edges: a SEG chain, and a V and a C4 edge per Comp.
	s.deps.to = slices.Grow(s.deps.to, len(s.ord)+2*len(s.compView))
	s.deps.next = slices.Grow(s.deps.next, len(s.ord)+2*len(s.compView))
	s.out = make([]int32, len(s.nodes))
	s.ready = make([]int32, 0, len(s.nodes))
	s.lastComp = make([]int32, n)
	s.installed = make([]uint8, n)
	return s, nil
}

// evaluate sorts the strong expression graph of the ordering in s.ord into
// s.out and returns that strategy's linear work; ok is false when the graph
// is cyclic. It adds the transitive reduction of ConstructSEG's ordering
// edges — along the ordering, each Inst after the previous Inst (SEG) and
// each Comp(V,{c}) after V's previous Comp (V) and that Comp's child's Inst
// (C4) — which has the same closure, hence the same sort and the same cycles.
func (s *search) evaluate() (work float64, ok bool) {
	d := &s.deps
	copy(d.indeg, s.indeg0)
	copy(d.head, s.head0)
	d.to, d.next = d.to[:s.nStatic], d.next[:s.nStatic]
	for i := range s.lastComp {
		s.lastComp[i] = -1
	}
	for i, c := range s.ord {
		d.prio[c] = int32(2*i + 1)
		if i > 0 {
			d.addDep(c, s.ord[i-1])
		}
		for _, k := range s.compsOver[c] {
			d.prio[k] = int32(2 * i)
			v := s.compView[int(k)-s.nViews]
			if prev := s.lastComp[v]; prev >= 0 {
				d.addDep(k, prev)
				d.addDep(k, s.compOver[int(prev)-s.nViews])
			}
			s.lastComp[v] = k
		}
	}
	if d.sort(d.indeg, s.ready, s.out) < len(s.out) {
		return 0, false
	}
	clear(s.installed)
	for _, node := range s.out {
		k := int(node) - s.nViews
		if k < 0 {
			work += s.instWork[node]
			s.installed[node] = 1
			continue
		}
		var scan, spill float64
		for _, t := range s.terms[s.termOff[k]:s.termOff[k+1]] {
			scan += t.scan[s.installed[t.view]]
			spill += t.spill[s.installed[t.view]]
		}
		work += s.model.CompCoeff*scan + spill
	}
	return work, true
}

// run evaluates every ordering, in strategy.Permutations order, and returns
// the first of those with the least work less saved() — what sharing saves
// the strategy in s.out, priced — rendered back to names and expressions;
// s.out is left holding the winner.
func (s *search) run(saved func() float64) (res PruneResult, adjusted float64) {
	res.Work, adjusted = -1, -1
	best := make([]int32, len(s.ord))
	strategy.VisitPermutations(s.ord, func([]int32) {
		res.Examined++
		w, ok := s.evaluate()
		if !ok {
			return // cyclic SEG: no strongly consistent strategy exists
		}
		res.Feasible++
		if adj := w - saved(); adjusted < 0 || adj < adjusted {
			res.Work, adjusted = w, adj
			copy(best, s.ord)
		}
	})
	if res.Feasible == 0 {
		return res, adjusted
	}
	copy(s.ord, best)
	s.evaluate()
	for _, node := range s.out {
		res.Strategy = append(res.Strategy, s.nodes[node])
	}
	for _, v := range best {
		res.Ordering = append(res.Ordering, s.nodes[v].(strategy.Inst).View)
	}
	return res, adjusted
}

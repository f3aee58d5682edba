package planner

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/cost"
	"repro/internal/strategy"
	"repro/internal/vdag"
)

// maxSearchViews is the most views with parents Prune orders: the search
// keeps one float64 per subset of them (8 MB, about a second, at the limit).
const maxSearchViews = 20

// search is the compiled form of one Prune search. What no ordering changes
// is resolved once: expressions are the dense node ids of the graph's
// skeleton (Inst(V) per view, then Comp(V,{c}) per VDAG edge) with its
// C3/C5/C8 edges, both compiled once per graph, and each Comp's linear work
// is tabulated per child and install state. Evaluating an ordering adds its
// V/C4/SEG edges, sorts and simulates against reused scratch, allocating
// nothing. The same tables price a view placed after a *set* of views
// (place), which is what lets run bound a prefix of an ordering without
// completing it.
type search struct {
	nodes     []strategy.Expr
	nViews    int
	compView  []int32   // per Comp node (less nViews): the view it computes (the skeleton's, read-only)
	compOver  []int32   // per Comp node (less nViews): the child it propagates (likewise)
	compsOver [][]int32 // per view: the Comp nodes propagating it (likewise)

	deps    depGraph
	nStatic int     // edges that hold under every ordering
	indeg0  []int32 // deps.indeg and deps.head with only those edges (the skeleton's, read-only)
	head0   []int32

	model    cost.Model // normalised: never without coefficients
	instWork []float64
	terms    []workTerm
	termOff  []int32 // Comp node (less nViews) -> terms[termOff[k]:termOff[k+1]]

	// The bound's view of the VDAG: a set of placed views is a bit mask.
	bit      []uint32 // per view: its bit in such a set; 0 for a view without parents
	children []uint32 // per view: the bits of its children

	ord       []int32 // the ordering under evaluation: views with parents
	out       []int32 // its strategy, as node ids
	ready     []int32
	lastComp  []int32 // per view: its latest Comp along ord
	installed []uint8
}

// workTerm is what one referenced child adds to a Comp (cost.RefWork),
// indexed by whether the child is installed.
type workTerm struct {
	view int32
	scan [2]float64
}

// compileSearch prices g's expressions for one search. The expressions and
// the edges no ordering changes are g's skeleton, compiled once per graph; a
// model with neither a compute nor an install coefficient is read as
// cost.DefaultModel's.
func compileSearch(g *vdag.Graph, model cost.Model, stats cost.Stats, refs cost.RefCounts) (*search, error) {
	if model.CompCoeff == 0 && model.InstCoeff == 0 {
		model.CompCoeff, model.InstCoeff = cost.DefaultModel.CompCoeff, cost.DefaultModel.InstCoeff
	}
	n := g.Len()
	s := &search{nViews: n, model: model, termOff: []int32{0}, bit: make([]uint32, n), children: make([]uint32, n)}
	for v := int32(0); v < int32(n); v++ {
		if len(g.ParentIDs(v)) > 0 {
			s.ord = append(s.ord, v)
		}
	}
	if len(s.ord) > maxSearchViews {
		return nil, fmt.Errorf("planner: %d views have parents and the search orders at most %d (it keeps a cost per subset of them); plan with MinWork",
			len(s.ord), maxSearchViews)
	}
	sk := skeletonOf(g)
	s.nodes, s.compView, s.compOver, s.compsOver = sk.nodes, sk.compView, sk.compOver, sk.compsOver
	// Priced once by the general simulator, which rejects missing statistics
	// and reference counts with the errors callers know.
	if _, err := cost.Work(model, stats, refs, s.nodes); err != nil {
		return nil, err
	}
	for v := int32(0); v < int32(n); v++ {
		s.instWork = append(s.instWork, model.InstCoeff*float64(stats[g.Name(v)].DeltaSize()))
	}
	for i, v := range s.ord {
		s.bit[v] = 1 << i
	}
	for k, v := range s.compView {
		c := s.compOver[k]
		s.children[v] |= s.bit[c]
		x := s.nodes[n+k].(strategy.Comp)
		rc := refs[x.View]
		r, found := rc[x.Over[0]], 0 // r: the Comp's delta-bound references
		for ci := int32(0); ci < int32(n); ci++ {
			child := g.Name(ci)
			nref, ok := rc[child]
			if !ok {
				continue
			}
			found++
			st, t := stats[child], workTerm{view: ci}
			t.scan[0] = cost.RefWork(nref, r, ci == c, st.Size, st.DeltaSize())
			t.scan[1] = cost.RefWork(nref, r, ci == c, st.SizeAfter(), st.DeltaSize())
			s.terms = append(s.terms, t)
		}
		if found != len(rc) {
			return nil, fmt.Errorf("planner: %q references a view the VDAG does not have", x.View)
		}
		s.termOff = append(s.termOff, int32(len(s.terms)))
	}
	// The edges no ordering changes are the skeleton's; evaluate resets to
	// them and adds one ordering's: a SEG chain, and a V and a C4 edge per
	// Comp.
	s.deps = sk.static.grown(len(s.ord) + 2*len(s.compView))
	s.nStatic, s.indeg0, s.head0 = len(sk.static.to), sk.static.indeg, sk.static.head
	s.deps.prio = make([]int32, len(s.nodes))
	for i := range s.deps.prio {
		s.deps.prio[i] = int32(2*len(s.ord) + 1) // views no ordering lists install last
	}
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
		var scan float64
		for _, t := range s.terms[s.termOff[k]:s.termOff[k+1]] {
			scan += t.scan[s.installed[t.view]]
		}
		work += s.model.CompCoeff * scan
	}
	return work, true
}

// place is what placing view x directly after the views in placed adds to
// the objective. Strong consistency pins every sibling's install state at each
// Comp over x to its membership in placed (Theorem 6.1), so this is x's
// install and the Comps propagating x, priced by evaluate's tables. It is
// +Inf when two or more of x's children are still unplaced: C5 puts Inst(x)
// after the Comp over the later of them, C4 puts that Comp after the earlier
// one's Inst, and the ordering puts that Inst after Inst(x).
func (s *search) place(x int32, placed uint32) float64 {
	if bits.OnesCount32(s.children[x]&^placed) >= 2 {
		return math.Inf(1)
	}
	w := s.instWork[x]
	for _, node := range s.compsOver[x] {
		k := int(node) - s.nViews
		var scan float64
		for _, t := range s.terms[s.termOff[k]:s.termOff[k+1]] {
			installed := 0
			if placed&s.bit[t.view] != 0 {
				installed = 1
			}
			scan += t.scan[installed]
		}
		w += s.model.CompCoeff * scan
	}
	return w
}

// costToGo tabulates, per set of placed views, the least that placing the
// rest can add: one backward pass, a set after its supersets. +Inf marks a
// set place lets no ordering leave. s.ord is in compiled order: bit i is
// s.ord[i].
func (s *search) costToGo() []float64 {
	h := make([]float64, 1<<len(s.ord))
	for placed := len(h) - 2; placed >= 0; placed-- {
		least := math.Inf(1)
		for i, x := range s.ord {
			if placed>>i&1 == 0 {
				least = min(least, s.place(x, uint32(placed))+h[placed|1<<i])
			}
		}
		h[placed] = least
	}
	return h
}

// roundingSlack is how far a prefix's bound may exceed, by rounding alone, the
// work evaluate reports for an ordering under it: the two sum the same priced
// terms in different orders. It is zero when no sum can round
// — tuple counts priced by coefficients on a 2⁻¹⁶ grid, as cost.DefaultModel's
// are — so that orderings tied with the incumbent are cut; otherwise ties
// within the slack are evaluated, as the loop over every ordering would.
func (s *search) roundingSlack() float64 {
	onGrid := func(v float64) bool { return v*(1<<16) == math.Trunc(v*(1<<16)) }
	exact, total := onGrid(s.model.CompCoeff), 0.0
	for _, w := range s.instWork {
		exact, total = exact && onGrid(w), total+math.Abs(w)
	}
	for _, t := range s.terms {
		for i := range t.scan {
			exact = exact && t.scan[i] == math.Trunc(t.scan[i])
			total += math.Abs(s.model.CompCoeff * t.scan[i])
		}
	}
	if exact && total < 1<<36 {
		return 0
	}
	return total * 1e-9
}

// run searches the orderings depth-first, in strategy.Permutations order, and
// returns the first of those with the least work, rendered back to names and
// expressions; s.out is left holding the winner. A prefix is left unfinished
// when what it has placed plus the least the rest can add (costToGo) is no
// better than the best ordering so far: an ordering's work is exactly place's
// sum, and an ordering place admits but evaluate finds cyclic is only
// dropped, so no ordering under a cut prefix would have replaced the
// incumbent. Examined counts the prefixes priced and the orderings completed,
// Feasible the complete orderings evaluate found acyclic.
func (s *search) run() (res PruneResult) {
	res.Work = -1
	best := make([]int32, len(s.ord))
	h, slack := s.costToGo(), s.roundingSlack()
	var extend func(k int, placed uint32, prefix float64)
	extend = func(k int, placed uint32, prefix float64) {
		if k >= len(s.ord)-1 { // the last view places itself: its prefix's bound was the ordering's
			res.Examined++
			w, ok := s.evaluate()
			if !ok {
				return // cyclic SEG: no strongly consistent strategy exists
			}
			res.Feasible++
			if res.Work < 0 || w < res.Work {
				res.Work = w
				copy(best, s.ord)
			}
			return
		}
		for i := k; i < len(s.ord); i++ { // strategy.VisitPermutations' order
			s.ord[k], s.ord[i] = s.ord[i], s.ord[k]
			res.Examined++
			x := s.ord[k]
			with := prefix + s.place(x, placed)
			if bound := with + h[placed|s.bit[x]]; bound < math.Inf(1) && (res.Work < 0 || bound-slack < res.Work) {
				extend(k+1, placed|s.bit[x], with)
			}
			s.ord[k], s.ord[i] = s.ord[i], s.ord[k]
		}
	}
	var base float64
	for v, w := range s.instWork {
		if s.bit[v] == 0 {
			base += w
		}
	}
	extend(0, 0, base)
	if res.Feasible == 0 {
		return res
	}
	copy(s.ord, best)
	s.evaluate()
	res.Strategy, res.Ordering = make(strategy.Strategy, 0, len(s.out)), make([]string, 0, len(best))
	for _, node := range s.out {
		res.Strategy = append(res.Strategy, s.nodes[node])
	}
	for _, v := range best {
		res.Ordering = append(res.Ordering, s.nodes[v].(strategy.Inst).View)
	}
	return res
}

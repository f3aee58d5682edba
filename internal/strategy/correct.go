package strategy

import (
	"fmt"
	"slices"

	"repro/internal/vdag"
)

// ValidateViewStrategy checks conditions C1–C6 of Definition 3.1 for a
// strategy updating view, which is defined over children. For a base view
// (no children), the only correct strategy is ⟨Inst(view)⟩.
func ValidateViewStrategy(view string, children []string, s Strategy) error {
	b := vdag.NewBuilder()
	var over []string
	for _, c := range children {
		if !slices.Contains(over, c) {
			over = append(over, c)
			if err := b.Add(c, nil); err != nil {
				return fmt.Errorf("strategy: %w", err)
			}
		}
	}
	if err := b.Add(view, over); err != nil {
		return fmt.Errorf("strategy: %w", err)
	}
	g := b.Build()
	v, _ := g.ID(view)
	r := Resolve(g, s)
	// Structural check: only expressions belonging to this view strategy.
	for p, e := range s {
		switch x := e.(type) {
		case Comp:
			if r.view[p] != v {
				return fmt.Errorf("strategy: %s does not belong to the view strategy of %s", x, view)
			}
			if err := r.checkComp(int32(p), v); err != nil {
				return err
			}
		case Inst:
			if !r.known(r.view[p]) { // every view of g is view or one of its children
				return fmt.Errorf("strategy: %s does not belong to the view strategy of %s", x, view)
			}
		default:
			return fmt.Errorf("strategy: unknown expression type %T", e)
		}
	}
	return r.checkView(v, nil)
}

// Resolved is a strategy resolved against a VDAG, the form validation and
// the step DAG's conflict relation read: each expression's kind and view as
// an id, a Comp's Over as ids, and per view of the graph the positions,
// ascending, of its Comps and of its Insts. A view the graph does not have
// gets an id past the graph's, one per name, and no positions; an
// expression that is neither a Comp nor an Inst has view −1.
type Resolved struct {
	g                *vdag.Graph
	s                Strategy
	kind             []ExprKind
	view             []int32
	overOff, over    []int32 // Over of expression p: over[overOff[p]:overOff[p+1]]
	compOff, compPos []int32 // Comps of view v: compPos[compOff[v]:compOff[v+1]]
	instOff, instPos []int32 // Insts of view v, likewise
}

// ExprKind is what an expression of a resolved strategy is.
type ExprKind uint8

const (
	OtherExpr ExprKind = iota // neither a Comp nor an Inst
	InstExpr
	CompExpr
)

// Resolve resolves s against g.
func Resolve(g *vdag.Graph, s Strategy) Resolved {
	nv := g.Len()
	var unknown []string
	id := func(name string) int32 {
		if v, ok := g.ID(name); ok {
			return v
		}
		for i, u := range unknown {
			if u == name {
				return int32(nv + i)
			}
		}
		unknown = append(unknown, name)
		return int32(nv + len(unknown) - 1)
	}
	n := 0
	for _, e := range s {
		if c, ok := e.(Comp); ok {
			n += len(c.Over)
		}
	}
	r := Resolved{g: g, s: s, kind: make([]ExprKind, len(s)), view: make([]int32, len(s)),
		overOff: make([]int32, len(s)+1), over: make([]int32, 0, n),
		compOff: make([]int32, nv+1), instOff: make([]int32, nv+1)}
	for p, e := range s {
		r.view[p] = -1
		switch x := e.(type) {
		case Comp:
			r.kind[p], r.view[p] = CompExpr, id(x.View)
			for _, o := range x.Over {
				r.over = append(r.over, id(o))
			}
			if r.known(r.view[p]) {
				r.compOff[r.view[p]+1]++
			}
		case Inst:
			if r.kind[p], r.view[p] = InstExpr, id(x.View); r.known(r.view[p]) {
				r.instOff[r.view[p]+1]++
			}
		}
		r.overOff[p+1] = int32(len(r.over))
	}
	for v := 0; v < nv; v++ {
		r.compOff[v+1] += r.compOff[v]
		r.instOff[v+1] += r.instOff[v]
	}
	r.compPos, r.instPos = make([]int32, r.compOff[nv]), make([]int32, r.instOff[nv])
	compNext, instNext := slices.Clone(r.compOff[:nv]), slices.Clone(r.instOff[:nv])
	for p := range s {
		if v := r.view[p]; r.known(v) {
			switch r.kind[p] {
			case CompExpr:
				r.compPos[compNext[v]] = int32(p)
				compNext[v]++
			case InstExpr:
				r.instPos[instNext[v]] = int32(p)
				instNext[v]++
			}
		}
	}
	return r
}

// Kind returns what expression p is.
func (r *Resolved) Kind(p int32) ExprKind { return r.kind[p] }

// View returns the id of the view expression p computes or installs.
func (r *Resolved) View(p int32) int32 { return r.view[p] }

// Over returns the ids of the views Comp p propagates, in its order.
func (r *Resolved) Over(p int32) []int32 { return r.over[r.overOff[p]:r.overOff[p+1]] }

// known reports whether id v is a view of the graph.
func (r *Resolved) known(v int32) bool { return v >= 0 && int(v) < r.g.Len() }

func (r *Resolved) comps(v int32) []int32 { return r.compPos[r.compOff[v]:r.compOff[v+1]] }
func (r *Resolved) insts(v int32) []int32 { return r.instPos[r.instOff[v]:r.instOff[v+1]] }

// firstInst returns the position of the first Inst of view v, or −1.
func (r *Resolved) firstInst(v int32) int32 {
	if is := r.insts(v); len(is) > 0 {
		return is[0]
	}
	return -1
}

// checkComp checks the Comp at position p, which computes view v, for the
// structural faults: an empty Over, or one that names a view v is not
// defined over, or names one twice.
func (r *Resolved) checkComp(p, v int32) error {
	x := r.s[p].(Comp)
	if len(x.Over) == 0 {
		return fmt.Errorf("strategy: %s propagates an empty set", x)
	}
	over := r.Over(p)
	for k, o := range over {
		if !slices.Contains(r.g.ChildIDs(v), o) {
			return fmt.Errorf("strategy: %s propagates %s, which %s is not defined over", x, x.Over[k], r.g.Name(v))
		}
		if slices.Contains(over[:k], o) {
			return fmt.Errorf("strategy: %s lists %s twice", x, x.Over[k])
		}
	}
	return nil
}

// sameOver reports whether the Comps at positions p and q propagate the
// same set of views; neither lists a view twice.
func (r *Resolved) sameOver(p, q int32) bool {
	a, b := r.Over(p), r.Over(q)
	if len(a) != len(b) {
		return false
	}
	for _, o := range a {
		if !slices.Contains(b, o) {
			return false
		}
	}
	return true
}

// checkView checks conditions C1–C6 for the view strategy that the strategy
// uses for view v (Definition 3.2: v's Comps, v's Insts and its children's),
// applying the footnote-5 extension: a child quiet[c] need not be
// propagated (C1) or installed (C2), nor v itself installed when quiet[v]. A
// nil quiet holds no view quiescent. All ordering conditions still bind the
// expressions that are present. Positions compare as in the used strategy,
// which keeps the strategy's order.
func (r *Resolved) checkView(v int32, quiet []bool) error {
	s, children := r.s, r.g.ChildIDs(v)
	quiescent := func(u int32) bool { return quiet != nil && quiet[u] }
	cs := r.comps(v)
	for _, p := range cs {
		if err := r.checkComp(p, v); err != nil {
			return err
		}
	}
	// C6: no duplicate expressions — reported at the first repeat.
	dup := int32(-1)
	note := func(p int32) {
		if dup < 0 || p < dup {
			dup = p
		}
	}
	if is := r.insts(v); len(is) > 1 {
		note(is[1])
	}
	for _, c := range children {
		if is := r.insts(c); len(is) > 1 {
			note(is[1])
		}
	}
comps:
	for a, p := range cs {
		for _, q := range cs[:a] {
			if r.sameOver(p, q) {
				note(p)
				break comps
			}
		}
	}
	if dup >= 0 {
		return fmt.Errorf("strategy: duplicate expression %s (C6)", s[dup])
	}
	// C1: every (non-quiescent) child's changes are propagated by some Comp.
	for _, c := range children {
		if quiescent(c) {
			continue
		}
		found := false
		for _, p := range cs {
			if slices.Contains(r.Over(p), c) {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("strategy: changes of %s are never propagated to %s (C1)", r.g.Name(c), r.g.Name(v))
		}
	}
	// C2: every (non-quiescent) child and the view itself are installed.
	for i := 0; i <= len(children); i++ {
		u := v
		if i < len(children) {
			u = children[i]
		}
		if !quiescent(u) && r.firstInst(u) < 0 {
			return fmt.Errorf("strategy: %s is never installed (C2)", r.g.Name(u))
		}
	}
	// C3: Inst(Vi) comes after every Comp using Vi.
	for _, p := range cs {
		comp := s[p].(Comp)
		for k, o := range r.Over(p) {
			if j := r.firstInst(o); j >= 0 && j < p {
				return fmt.Errorf("strategy: %s precedes %s which uses δ%s (C3)", Inst{comp.Over[k]}, comp, comp.Over[k])
			}
		}
	}
	// C4: between two Comp expressions, the earlier one's views must be
	// installed before the later Comp runs.
	for a, i := range cs {
		ci := s[i].(Comp)
		for _, j := range cs[a+1:] {
			for k, o := range r.Over(i) {
				if at := r.firstInst(o); at < 0 || at > j {
					return fmt.Errorf("strategy: %s runs before %s is installed, violating C4 (it was used by %s)", s[j], ci.Over[k], ci)
				}
			}
		}
	}
	// C5: Inst(view) after every Comp. (A quiescent view may omit its
	// install; C2 has already required it otherwise.)
	if iv := r.firstInst(v); iv >= 0 {
		for _, p := range cs {
			if p > iv {
				return fmt.Errorf("strategy: %s runs after %s (C5)", s[p], Inst{r.g.Name(v)})
			}
		}
	}
	return nil
}

// UsedViewStrategy extracts the view strategy used by a VDAG strategy for
// view (Definition 3.2): the subsequence of Comp(view, …), Inst(view), and
// Inst(child) expressions.
func UsedViewStrategy(s Strategy, view string, children []string) Strategy {
	childSet := make(map[string]bool, len(children))
	for _, c := range children {
		childSet[c] = true
	}
	var out Strategy
	for _, e := range s {
		switch x := e.(type) {
		case Comp:
			if x.View == view {
				out = append(out, e)
			}
		case Inst:
			if x.View == view || childSet[x.View] {
				out = append(out, e)
			}
		}
	}
	return out
}

// ValidateVDAGStrategy checks conditions C7–C8 of Definition 3.3 against
// the given VDAG.
func ValidateVDAGStrategy(g *vdag.Graph, s Strategy) error {
	return ValidateVDAGStrategyRelaxed(g, s, nil)
}

// ValidateVDAGStrategyRelaxed is ValidateVDAGStrategy with the paper's
// footnote-5 extension: a view whose id quiescent holds true (its delta is
// empty and nothing above it changes) need not be propagated or installed.
// Ordering conditions still apply to whatever expressions the strategy does
// contain. A nil quiescent set requires everything.
func ValidateVDAGStrategyRelaxed(g *vdag.Graph, s Strategy, quiescent []bool) error {
	r := Resolve(g, s)
	// Every expression must reference known views.
	for p, e := range s {
		switch x := e.(type) {
		case Comp, Inst:
			if !r.known(r.view[p]) {
				return fmt.Errorf("strategy: %s references unknown view", x)
			}
		default:
			return fmt.Errorf("strategy: unknown expression type %T", e)
		}
	}
	// C7: the used view strategy of every view must be correct.
	for v := int32(0); v < int32(g.Len()); v++ {
		if quiescent != nil && quiescent[v] && len(r.comps(v)) == 0 && len(r.insts(v)) == 0 {
			// Footnote 5: a skippable view whose own
			// expressions are absent needs no validation — the child
			// installs in its used subsequence belong to other views'
			// strategies. If any of its own expressions are present, the
			// strategy chose to update it and full correctness applies.
			continue
		}
		if err := r.checkView(v, quiescent); err != nil {
			return fmt.Errorf("strategy: view %s (C7): %w", g.Name(v), err)
		}
	}
	// C8: changes of Vj must be fully computed before they are propagated
	// upward: every Comp(Vj, …) precedes every Comp(Vk, {… Vj …}).
	for p, e := range s {
		ck, ok := e.(Comp)
		if !ok {
			continue
		}
		for k, vj := range r.Over(int32(p)) {
			for _, q := range r.comps(vj) { // none for a base view
				if q > int32(p) {
					return fmt.Errorf("strategy: %s runs after %s already propagated δ%s (C8)", s[q], ck, ck.Over[k])
				}
			}
		}
	}
	return nil
}

// IsConsistent reports whether the VDAG strategy is consistent with the
// view ordering (Section 4/5): for every view, the used view strategy
// installs that view's children in an order compatible with the ordering.
func IsConsistent(g *vdag.Graph, s Strategy, ordering []string) bool {
	pos := orderingPos(ordering)
	for _, v := range g.DerivedViews() {
		children := g.Children(v)
		used := UsedViewStrategy(s, v, children)
		childSet := make(map[string]bool, len(children))
		for _, c := range children {
			childSet[c] = true
		}
		prev := -1
		for _, e := range used.InstOrder() {
			if e == v || !childSet[e] {
				continue
			}
			p, ok := pos[e]
			if !ok {
				continue
			}
			if p < prev {
				return false
			}
			prev = p
		}
	}
	return true
}

// IsStronglyConsistent reports whether the strategy installs all views in
// an order compatible with the ordering (Section 6): Inst(Vi) < Inst(Vj)
// implies Vi before Vj in the ordering. Views missing from the ordering are
// unconstrained.
func IsStronglyConsistent(s Strategy, ordering []string) bool {
	pos := orderingPos(ordering)
	prev := -1
	for _, v := range s.InstOrder() {
		p, ok := pos[v]
		if !ok {
			continue
		}
		if p < prev {
			return false
		}
		prev = p
	}
	return true
}

func orderingPos(ordering []string) map[string]int {
	pos := make(map[string]int, len(ordering))
	for i, v := range ordering {
		pos[v] = i
	}
	return pos
}

// DualStageVDAG builds the dual-stage VDAG strategy of the paper's
// Experiment 4: every derived view propagates all of its children's changes
// in a single Comp (in topological order), then all changes are installed.
func DualStageVDAG(g *vdag.Graph) Strategy {
	var out Strategy
	for _, v := range g.Views() { // topological order
		if g.IsDerived(v) {
			out = append(out, Comp{View: v, Over: g.Children(v)})
		}
	}
	for _, v := range g.Views() {
		out = append(out, Inst{View: v})
	}
	return out
}

package strategy

import (
	"fmt"

	"repro/internal/vdag"
)

// This file holds the validation by name that the id form (correct.go) is
// held to: the used view strategy of every view extracted, and conditions
// C1–C8 checked over maps keyed by name and Expr.Key().

// Uses reports whether the Comp propagates the changes of view v.
func (c Comp) Uses(v string) bool {
	for _, o := range c.Over {
		if o == v {
			return true
		}
	}
	return false
}

// indexOfInst returns the position of Inst(view), or -1.
func (s Strategy) indexOfInst(view string) int {
	for i, e := range s {
		if inst, ok := e.(Inst); ok && inst.View == view {
			return i
		}
	}
	return -1
}

// refValidateViewStrategy is the view-strategy check as it stood before
// validation resolved views to ids. It applies the footnote-5 extension: quiescent
// children need not be propagated (C1) or installed (C2), and a quiescent
// view need not install itself. All ordering conditions still bind the
// expressions that are present.
func refValidateViewStrategy(view string, children []string, s Strategy, quiescent func(string) bool) error {
	childSet := make(map[string]bool, len(children))
	for _, c := range children {
		childSet[c] = true
	}
	// Structural check: only expressions belonging to this view strategy.
	for _, e := range s {
		switch x := e.(type) {
		case Comp:
			if x.View != view {
				return fmt.Errorf("strategy: %s does not belong to the view strategy of %s", x, view)
			}
			if len(x.Over) == 0 {
				return fmt.Errorf("strategy: %s propagates an empty set", x)
			}
			seen := make(map[string]bool)
			for _, o := range x.Over {
				if !childSet[o] {
					return fmt.Errorf("strategy: %s propagates %s, which %s is not defined over", x, o, view)
				}
				if seen[o] {
					return fmt.Errorf("strategy: %s lists %s twice", x, o)
				}
				seen[o] = true
			}
		case Inst:
			if x.View != view && !childSet[x.View] {
				return fmt.Errorf("strategy: %s does not belong to the view strategy of %s", x, view)
			}
		default:
			return fmt.Errorf("strategy: unknown expression type %T", e)
		}
	}
	// C6: no duplicate expressions.
	keys := make(map[string]bool, len(s))
	for _, e := range s {
		k := e.Key()
		if keys[k] {
			return fmt.Errorf("strategy: duplicate expression %s (C6)", e)
		}
		keys[k] = true
	}
	// C1: every (non-quiescent) child's changes are propagated by some Comp.
	for _, c := range children {
		if quiescent(c) {
			continue
		}
		found := false
		for _, e := range s {
			if comp, ok := e.(Comp); ok && comp.Uses(c) {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("strategy: changes of %s are never propagated to %s (C1)", c, view)
		}
	}
	// C2: every (non-quiescent) child and the view itself are installed.
	for _, c := range append(append([]string(nil), children...), view) {
		if quiescent(c) {
			continue
		}
		if s.indexOfInst(c) < 0 {
			return fmt.Errorf("strategy: %s is never installed (C2)", c)
		}
	}
	// C3: Inst(Vi) comes after every Comp using Vi.
	for i, e := range s {
		comp, ok := e.(Comp)
		if !ok {
			continue
		}
		for _, o := range comp.Over {
			if j := s.indexOfInst(o); j >= 0 && j < i {
				return fmt.Errorf("strategy: %s precedes %s which uses δ%s (C3)", Inst{o}, comp, o)
			}
		}
	}
	// C4: between two Comp expressions, the earlier one's views must be
	// installed before the later Comp runs.
	for i, e := range s {
		ci, ok := e.(Comp)
		if !ok {
			continue
		}
		for j := i + 1; j < len(s); j++ {
			cj, ok := s[j].(Comp)
			if !ok {
				continue
			}
			for _, o := range ci.Over {
				k := s.indexOfInst(o)
				if k < 0 || k > j {
					return fmt.Errorf("strategy: %s runs before %s is installed, violating C4 (it was used by %s)", cj, o, ci)
				}
			}
		}
	}
	// C5: Inst(view) after every Comp. (A quiescent view may omit its
	// install; C2 has already required it otherwise.)
	if iv := s.indexOfInst(view); iv >= 0 {
		for i, e := range s {
			if _, ok := e.(Comp); ok && i > iv {
				return fmt.Errorf("strategy: %s runs after %s (C5)", e, Inst{view})
			}
		}
	}
	return nil
}

// refValidateVDAGStrategy is ValidateVDAGStrategyRelaxed as it stood
// before validation resolved views to ids: ValidateVDAGStrategy with the paper's
// footnote-5 extension: a view for which quiescent returns true (its delta
// is empty and nothing above it changes) need not be propagated or
// installed. Ordering conditions still apply to whatever expressions the
// strategy does contain. A nil quiescent predicate requires everything.
func refValidateVDAGStrategy(g *vdag.Graph, s Strategy, quiescent func(view string) bool) error {
	if quiescent == nil {
		quiescent = func(string) bool { return false }
	}
	// Every expression must reference known views.
	for _, e := range s {
		switch x := e.(type) {
		case Comp:
			if _, ok := g.ID(x.View); !ok {
				return fmt.Errorf("strategy: %s references unknown view", x)
			}
		case Inst:
			if _, ok := g.ID(x.View); !ok {
				return fmt.Errorf("strategy: %s references unknown view", x)
			}
		default:
			return fmt.Errorf("strategy: unknown expression type %T", e)
		}
	}
	// C7: the used view strategy of every view must be correct.
	for _, v := range g.Views() {
		used := UsedViewStrategy(s, v, g.Children(v))
		if quiescent(v) && !refTouchesView(used, v) {
			// Footnote 5: a skippable view whose own
			// expressions are absent needs no validation — the child
			// installs in its used subsequence belong to other views'
			// strategies. If any of its own expressions are present, the
			// strategy chose to update it and full correctness applies.
			continue
		}
		if err := refValidateViewStrategy(v, g.Children(v), used, quiescent); err != nil {
			return fmt.Errorf("strategy: view %s (C7): %w", v, err)
		}
	}
	// C8: changes of Vj must be fully computed before they are propagated
	// upward: every Comp(Vj, …) precedes every Comp(Vk, {… Vj …}).
	for i, e := range s {
		ck, ok := e.(Comp)
		if !ok {
			continue
		}
		for _, vj := range ck.Over {
			if g.IsBase(vj) {
				continue
			}
			for j := i + 1; j < len(s); j++ {
				cj, ok := s[j].(Comp)
				if !ok || cj.View != vj {
					continue
				}
				return fmt.Errorf("strategy: %s runs after %s already propagated δ%s (C8)", cj, ck, vj)
			}
		}
	}
	return nil
}

// refTouchesView reports whether the sequence contains any of the view's own
// expressions: a Comp computing it or its install.
func refTouchesView(s Strategy, view string) bool {
	for _, e := range s {
		switch x := e.(type) {
		case Comp:
			if x.View == view {
				return true
			}
		case Inst:
			if x.View == view {
				return true
			}
		}
	}
	return false
}

// RefValidateVDAGStrategy and RefValidateViewStrategy expose the references
// to the tests of package strategy_test, which draw their strategies through
// packages that import this one.
var RefValidateVDAGStrategy = refValidateVDAGStrategy

func RefValidateViewStrategy(view string, children []string, s Strategy) error {
	return refValidateViewStrategy(view, children, s, func(string) bool { return false })
}

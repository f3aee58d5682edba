// Package strategy models warehouse update strategies exactly as in the
// paper: a strategy is a sequence of Comp and Inst expressions. The package
// provides the correctness conditions for view strategies (C1–C6,
// Definition 3.1) and VDAG strategies (C7–C8, Definition 3.3), the
// extraction of the view strategy "used by" a VDAG strategy (Definition
// 3.2), consistency and strong consistency with view orderings, and
// exhaustive enumeration of the strategy spaces (whose sizes are the ordered
// Bell numbers of Table 1).
package strategy

import (
	"fmt"
	"sort"
	"strings"
)

// Expr is one expression of a strategy: either a Comp or an Inst.
type Expr interface {
	isExpr()
	String() string
	// Key returns a canonical identity string; two expressions are "the
	// same" (condition C6) iff their keys are equal.
	Key() string
}

// Comp is Comp(View, Over): compute the changes of View considering the
// changes of the views in Over (a set; order is not significant).
type Comp struct {
	View string
	Over []string
}

func (Comp) isExpr() {}

// OverSorted returns the Over set in sorted order.
func (c Comp) OverSorted() []string {
	out := append([]string(nil), c.Over...)
	sort.Strings(out)
	return out
}

// Key implements Expr.
func (c Comp) Key() string { return "C:" + c.View + ":" + strings.Join(c.OverSorted(), ",") }

func (c Comp) String() string {
	return fmt.Sprintf("Comp(%s, {%s})", c.View, strings.Join(c.Over, ", "))
}

// Inst is Inst(View): install the pending changes of View.
type Inst struct {
	View string
}

func (Inst) isExpr() {}

// Key implements Expr.
func (i Inst) Key() string { return "I:" + i.View }

func (i Inst) String() string { return fmt.Sprintf("Inst(%s)", i.View) }

// Strategy is a sequence of expressions.
type Strategy []Expr

// String renders the strategy as "⟨E1; E2; …⟩".
func (s Strategy) String() string {
	parts := make([]string, len(s))
	for i, e := range s {
		parts[i] = e.String()
	}
	return "⟨" + strings.Join(parts, "; ") + "⟩"
}

// Clone returns a copy of the sequence (expressions are immutable values).
func (s Strategy) Clone() Strategy { return append(Strategy(nil), s...) }

// InstOrder returns the views in order of their Inst expressions.
func (s Strategy) InstOrder() []string {
	var out []string
	for _, e := range s {
		if inst, ok := e.(Inst); ok {
			out = append(out, inst.View)
		}
	}
	return out
}

// IsOneWay reports whether every Comp propagates a single view's changes.
func (s Strategy) IsOneWay() bool {
	for _, e := range s {
		if c, ok := e.(Comp); ok && len(c.Over) != 1 {
			return false
		}
	}
	return true
}

// OneWayView builds the 1-way view strategy for view that propagates its
// children's changes in the given order (expression (3) of the paper):
//
//	⟨Comp(V,{c1}); Inst(c1); …; Comp(V,{cn}); Inst(cn); Inst(V)⟩
func OneWayView(view string, orderedChildren []string) Strategy {
	var out Strategy
	for _, c := range orderedChildren {
		out = append(out, Comp{View: view, Over: []string{c}}, Inst{View: c})
	}
	return append(out, Inst{View: view})
}

// DualStageView builds the dual-stage view strategy for view (expression
// (2) of the paper): one Comp over all children, then all installs.
func DualStageView(view string, children []string) Strategy {
	out := Strategy{Comp{View: view, Over: append([]string(nil), children...)}}
	for _, c := range children {
		out = append(out, Inst{View: c})
	}
	return append(out, Inst{View: view})
}

// PartitionedView builds the view strategy corresponding to an ordered
// partition of the children: for each block B in order, Comp(V, B) followed
// by the installs of B's members, ending with Inst(V). 1-way and dual-stage
// strategies are the two extreme partitions.
func PartitionedView(view string, blocks [][]string) Strategy {
	var out Strategy
	for _, b := range blocks {
		out = append(out, Comp{View: view, Over: append([]string(nil), b...)})
		for _, c := range b {
			out = append(out, Inst{View: c})
		}
	}
	return append(out, Inst{View: view})
}

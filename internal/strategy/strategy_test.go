package strategy

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/vdag"
)

func fig3() *vdag.Graph {
	return vdag.MustBuild(
		[2]interface{}{"V1", nil},
		[2]interface{}{"V2", nil},
		[2]interface{}{"V3", nil},
		[2]interface{}{"V4", []string{"V2", "V3"}},
		[2]interface{}{"V5", []string{"V4", "V1"}},
	)
}

func TestExprBasics(t *testing.T) {
	c := Comp{View: "V", Over: []string{"B", "A"}}
	if c.String() != "Comp(V, {B, A})" {
		t.Errorf("String = %q", c.String())
	}
	if c.Key() != "C:V:A,B" {
		t.Errorf("Key = %q (must be order-insensitive)", c.Key())
	}
	if !c.Uses("A") || c.Uses("Z") {
		t.Errorf("Uses wrong")
	}
	i := Inst{View: "V"}
	if i.String() != "Inst(V)" || i.Key() != "I:V" {
		t.Errorf("Inst rendering wrong")
	}
	c2 := Comp{View: "V", Over: []string{"A", "B"}}
	if c.Key() != c2.Key() {
		t.Errorf("set equality broken")
	}
}

func TestStrategyHelpers(t *testing.T) {
	s := OneWayView("V", []string{"A", "B"})
	want := "⟨Comp(V, {A}); Inst(A); Comp(V, {B}); Inst(B); Inst(V)⟩"
	if s.String() != want {
		t.Errorf("OneWayView = %s", s)
	}
	if !s.IsOneWay() {
		t.Errorf("1-way not recognized")
	}
	if got := s.InstOrder(); !reflect.DeepEqual(got, []string{"A", "B", "V"}) {
		t.Errorf("InstOrder = %v", got)
	}
	d := DualStageView("V", []string{"A", "B"})
	if d.IsOneWay() {
		t.Errorf("dual-stage misclassified as 1-way")
	}
	if d.String() != "⟨Comp(V, {A, B}); Inst(A); Inst(B); Inst(V)⟩" {
		t.Errorf("DualStageView = %s", d)
	}
	p := PartitionedView("V", [][]string{{"A"}, {"B", "C"}})
	if p.String() != "⟨Comp(V, {A}); Inst(A); Comp(V, {B, C}); Inst(B); Inst(C); Inst(V)⟩" {
		t.Errorf("PartitionedView = %s", p)
	}
	cl := s.Clone()
	cl[0] = Inst{View: "X"}
	if _, ok := s[0].(Comp); !ok {
		t.Errorf("Clone aliases")
	}
}

func TestValidateViewStrategyAcceptsCanonicalForms(t *testing.T) {
	children := []string{"A", "B", "C"}
	for _, s := range EnumerateViewStrategies("V", children) {
		if err := ValidateViewStrategy("V", children, s); err != nil {
			t.Errorf("enumerated strategy rejected: %s: %v", s, err)
		}
	}
	// Base view: only ⟨Inst(V)⟩.
	if err := ValidateViewStrategy("B", nil, Strategy{Inst{View: "B"}}); err != nil {
		t.Errorf("base view strategy rejected: %v", err)
	}
}

func TestValidateViewStrategyRejections(t *testing.T) {
	children := []string{"A", "B"}
	cases := []struct {
		name string
		s    Strategy
		want string
	}{
		{"missing propagation (C1)", Strategy{
			Comp{"V", []string{"A"}}, Inst{"A"}, Inst{"B"}, Inst{"V"},
		}, "C1"},
		{"missing install (C2)", Strategy{
			Comp{"V", []string{"A"}}, Inst{"A"}, Comp{"V", []string{"B"}}, Inst{"B"},
		}, "C2"},
		{"install before comp (C3)", Strategy{
			Inst{"A"}, Comp{"V", []string{"A"}}, Comp{"V", []string{"B"}}, Inst{"B"}, Inst{"V"},
		}, "C3"},
		{"missing install between comps (C4)", Strategy{
			Comp{"V", []string{"A"}}, Comp{"V", []string{"B"}}, Inst{"A"}, Inst{"B"}, Inst{"V"},
		}, "C4"},
		{"comp after own install (C5)", Strategy{
			Comp{"V", []string{"A"}}, Inst{"A"}, Inst{"V"}, Comp{"V", []string{"B"}}, Inst{"B"},
		}, "C5"},
		{"duplicate expression (C6)", Strategy{
			Comp{"V", []string{"A"}}, Comp{"V", []string{"A"}}, Inst{"A"}, Comp{"V", []string{"B"}}, Inst{"B"}, Inst{"V"},
		}, "C6"},
		{"two comps propagating same view", Strategy{
			Comp{"V", []string{"A", "B"}}, Comp{"V", []string{"A"}}, Inst{"A"}, Inst{"B"}, Inst{"V"},
		}, "C4"},
		{"foreign comp", Strategy{
			Comp{"W", []string{"A"}}, Comp{"V", []string{"A", "B"}}, Inst{"A"}, Inst{"B"}, Inst{"V"},
		}, "belong"},
		{"foreign install", Strategy{
			Comp{"V", []string{"A", "B"}}, Inst{"A"}, Inst{"B"}, Inst{"Z"}, Inst{"V"},
		}, "belong"},
		{"empty comp", Strategy{
			Comp{"V", nil}, Comp{"V", []string{"A", "B"}}, Inst{"A"}, Inst{"B"}, Inst{"V"},
		}, "empty"},
		{"comp over non-child", Strategy{
			Comp{"V", []string{"Z"}}, Comp{"V", []string{"A", "B"}}, Inst{"A"}, Inst{"B"}, Inst{"V"},
		}, "not defined over"},
		{"comp lists child twice", Strategy{
			Comp{"V", []string{"A", "A", "B"}}, Inst{"A"}, Inst{"B"}, Inst{"V"},
		}, "twice"},
	}
	for _, c := range cases {
		err := ValidateViewStrategy("V", children, c.s)
		if err == nil {
			t.Errorf("%s: accepted %s", c.name, c.s)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestUsedViewStrategy(t *testing.T) {
	// VDAG strategy (6) from Example 3.1.
	s := Strategy{
		Comp{"V4", []string{"V2"}}, Inst{"V2"}, Comp{"V4", []string{"V3"}}, Inst{"V3"},
		Comp{"V5", []string{"V4"}}, Inst{"V4"}, Comp{"V5", []string{"V1"}}, Inst{"V1"}, Inst{"V5"},
	}
	u4 := UsedViewStrategy(s, "V4", []string{"V2", "V3"})
	if u4.String() != "⟨Comp(V4, {V2}); Inst(V2); Comp(V4, {V3}); Inst(V3); Inst(V4)⟩" {
		t.Errorf("used(V4) = %s", u4)
	}
	u5 := UsedViewStrategy(s, "V5", []string{"V4", "V1"})
	if u5.String() != "⟨Comp(V5, {V4}); Inst(V4); Comp(V5, {V1}); Inst(V1); Inst(V5)⟩" {
		t.Errorf("used(V5) = %s", u5)
	}
	u1 := UsedViewStrategy(s, "V1", nil)
	if u1.String() != "⟨Inst(V1)⟩" {
		t.Errorf("used(V1) = %s", u1)
	}
}

func TestValidateVDAGStrategyExample31(t *testing.T) {
	g := fig3()
	s := Strategy{
		Comp{"V4", []string{"V2"}}, Inst{"V2"}, Comp{"V4", []string{"V3"}}, Inst{"V3"},
		Comp{"V5", []string{"V4"}}, Inst{"V4"}, Comp{"V5", []string{"V1"}}, Inst{"V1"}, Inst{"V5"},
	}
	if err := ValidateVDAGStrategy(g, s); err != nil {
		t.Fatalf("Example 3.1 strategy rejected: %v", err)
	}
}

func TestValidateVDAGStrategyC8(t *testing.T) {
	g := fig3()
	// Propagate δV4 to V5 before δV3 has been propagated to V4: C8 violated.
	s := Strategy{
		Comp{"V4", []string{"V2"}}, Inst{"V2"},
		Comp{"V5", []string{"V4"}},
		Comp{"V4", []string{"V3"}}, Inst{"V3"},
		Inst{"V4"}, Comp{"V5", []string{"V1"}}, Inst{"V1"}, Inst{"V5"},
	}
	err := ValidateVDAGStrategy(g, s)
	if err == nil || !strings.Contains(err.Error(), "C8") {
		t.Errorf("C8 violation not caught: %v", err)
	}
	// Unknown views rejected.
	if err := ValidateVDAGStrategy(g, Strategy{Comp{"X", []string{"V1"}}}); err == nil {
		t.Errorf("unknown comp view accepted")
	}
	if err := ValidateVDAGStrategy(g, Strategy{Inst{"X"}}); err == nil {
		t.Errorf("unknown inst view accepted")
	}
}

func TestExample12Incompatibility(t *testing.T) {
	// Figure 2: V and V' both over {C, O, L}. Strategy 2 for V (order C, O,
	// L) cannot be combined with Strategy 3 for V' (L first, then {C,O}) —
	// the paper's Example 1.2.
	g := vdag.MustBuild(
		[2]interface{}{"C", nil},
		[2]interface{}{"O", nil},
		[2]interface{}{"L", nil},
		[2]interface{}{"V", []string{"C", "O", "L"}},
		[2]interface{}{"Vp", []string{"C", "O", "L"}},
	)
	// Try to interleave: Strategy 2 needs Inst(C) < Inst(O) < Inst(L);
	// Strategy 3 needs Inst(L) < Inst(C). Any sequence containing both as
	// subsequences violates C6 (duplicate Inst) or C3/C4.
	combined := Strategy{
		Comp{"V", []string{"C"}}, Comp{"Vp", []string{"L"}}, Inst{"L"},
		Inst{"C"},
		Comp{"V", []string{"O"}}, Inst{"O"},
		Comp{"V", []string{"L"}},
		Comp{"Vp", []string{"C", "O"}},
		Inst{"V"}, Inst{"Vp"},
	}
	if err := ValidateVDAGStrategy(g, combined); err == nil {
		t.Errorf("incompatible combination accepted")
	}
	// Strategy 1 for V (dual-stage) combined with Strategy 3 for V' is
	// consistent (the paper notes this combination works).
	ok := Strategy{
		Comp{"Vp", []string{"L"}},
		Comp{"V", []string{"C", "O", "L"}},
		Inst{"L"},
		Comp{"Vp", []string{"C", "O"}},
		Inst{"C"}, Inst{"O"},
		Inst{"V"}, Inst{"Vp"},
	}
	if err := ValidateVDAGStrategy(g, ok); err != nil {
		t.Errorf("Strategy 1 + Strategy 3 combination rejected: %v", err)
	}
}

func TestConsistency(t *testing.T) {
	g := fig3()
	s := Strategy{
		Comp{"V4", []string{"V2"}}, Inst{"V2"}, Comp{"V4", []string{"V3"}}, Inst{"V3"},
		Comp{"V5", []string{"V4"}}, Inst{"V4"}, Comp{"V5", []string{"V1"}}, Inst{"V1"}, Inst{"V5"},
	}
	// Example 5.1 ordering.
	if !IsConsistent(g, s, []string{"V4", "V2", "V1", "V3", "V5"}) {
		t.Errorf("strategy should be consistent with the Example 5.1 ordering")
	}
	if IsConsistent(g, s, []string{"V3", "V2", "V4", "V1", "V5"}) {
		t.Errorf("strategy should be inconsistent with V3-before-V2 ordering")
	}
	// Strong consistency pins every install pair.
	if !IsStronglyConsistent(s, []string{"V2", "V3", "V4", "V1", "V5"}) {
		t.Errorf("should be strongly consistent with its own install order")
	}
	if IsStronglyConsistent(s, []string{"V4", "V2", "V1", "V3", "V5"}) {
		t.Errorf("Inst(V2) < Inst(V4) contradicts V4-first ordering")
	}
}

// Lemma 6.1: every 1-way VDAG strategy is strongly consistent with exactly
// one ordering of the installed views — its own install order.
func TestLemma61(t *testing.T) {
	g := fig3()
	strategies := EnumerateVDAGStrategies(g)
	if len(strategies) == 0 {
		t.Fatal("no strategies enumerated")
	}
	for _, s := range strategies {
		if !s.IsOneWay() {
			continue
		}
		own := s.InstOrder()
		if !IsStronglyConsistent(s, own) {
			t.Fatalf("%s not strongly consistent with its own install order", s)
		}
		for _, perm := range Permutations(own) {
			same := reflect.DeepEqual(perm, own)
			if IsStronglyConsistent(s, perm) != same {
				t.Fatalf("%s strongly consistent with %v (own order %v)", s, perm, own)
			}
		}
	}
}

func TestDualStageVDAG(t *testing.T) {
	g := fig3()
	s := DualStageVDAG(g)
	if err := ValidateVDAGStrategy(g, s); err != nil {
		t.Fatalf("dual-stage VDAG strategy invalid: %v", err)
	}
	if s.IsOneWay() {
		t.Errorf("dual-stage should not be 1-way")
	}
	// Exactly one comp per derived view, all comps before all insts.
	comps, sawInst := 0, false
	for _, e := range s {
		switch e.(type) {
		case Inst:
			sawInst = true
		case Comp:
			comps++
			if sawInst {
				t.Errorf("comp after inst in dual-stage strategy")
			}
		}
	}
	if comps != 2 {
		t.Errorf("comps = %d", comps)
	}
}

package planner

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/strategy"
)

// sharingRefs is the reference function of a toy VDAG: V1..V3 each join the
// base views A and B.
func sharingRefs(view string) []string {
	switch view {
	case "V1", "V2", "V3":
		return []string{"A", "B"}
	}
	return nil
}

// TestAnalyzeSharingDualStage: the dual-stage strategy computes every view
// before any install, so the three Comps read identical version-0 operands —
// the maximal sharing case.
func TestAnalyzeSharingDualStage(t *testing.T) {
	s := strategy.Strategy{
		strategy.Comp{View: "V1", Over: []string{"A", "B"}},
		strategy.Comp{View: "V2", Over: []string{"A", "B"}},
		strategy.Comp{View: "V3", Over: []string{"A", "B"}},
		strategy.Inst{View: "A"}, strategy.Inst{View: "B"},
		strategy.Inst{View: "V1"}, strategy.Inst{View: "V2"}, strategy.Inst{View: "V3"},
	}
	plan := AnalyzeSharing(s, sharingRefs, SharingOptions{})
	// Each Comp has r=2, so it reads δA, δB and (r>1) the states of A, B:
	// 4 operands, each with 3 consumers.
	if plan.SharedOperands != 4 {
		t.Fatalf("SharedOperands = %d, want 4", plan.SharedOperands)
	}
	for _, op := range []OperandKey{
		{View: "A", Delta: true}, {View: "B", Delta: true},
		{View: "A"}, {View: "B"},
	} {
		if plan.Consumers[op] != 3 {
			t.Errorf("Consumers[%+v] = %d, want 3", op, plan.Consumers[op])
		}
	}
	ops := plan.ByComp[strategy.Comp{View: "V2", Over: []string{"A", "B"}}.Key()]
	if len(ops) != 4 {
		t.Errorf("ByComp[V2] has %d operands, want 4: %+v", len(ops), ops)
	}
}

// TestAnalyzeSharingVersions: installs between reads separate operand
// versions, so Comps straddling an Inst do not share that view's operands.
func TestAnalyzeSharingVersions(t *testing.T) {
	s := strategy.Strategy{
		strategy.Comp{View: "V1", Over: []string{"A"}}, // reads δA v0 (r=1: no state read of A), state B v0
		strategy.Inst{View: "A"},
		strategy.Comp{View: "V2", Over: []string{"A"}}, // reads δA v1, state B v0
		strategy.Inst{View: "A"},
		strategy.Inst{View: "B"},
		strategy.Inst{View: "V1"}, strategy.Inst{View: "V2"},
	}
	plan := AnalyzeSharing(s, sharingRefs, SharingOptions{})
	if n := plan.Consumers[OperandKey{View: "A", Delta: true, Version: 0}]; n != 1 {
		t.Errorf("δA v0 consumers = %d, want 1", n)
	}
	if n := plan.Consumers[OperandKey{View: "A", Delta: true, Version: 1}]; n != 1 {
		t.Errorf("δA v1 consumers = %d, want 1", n)
	}
	// Both Comps read B's state before Inst(B): the one shared operand.
	if n := plan.Consumers[OperandKey{View: "B", Version: 0}]; n != 2 {
		t.Errorf("state B v0 consumers = %d, want 2", n)
	}
	if plan.SharedOperands != 1 {
		t.Errorf("SharedOperands = %d, want 1", plan.SharedOperands)
	}
}

// TestAnalyzeSharingSingleRef: with r=1 the Comp reads the delta but not
// the state of the over view (the single term has no state-side copy).
func TestAnalyzeSharingSingleRef(t *testing.T) {
	s := strategy.Strategy{
		strategy.Comp{View: "V1", Over: []string{"A"}},
		strategy.Inst{View: "A"}, strategy.Inst{View: "V1"},
	}
	plan := AnalyzeSharing(s, sharingRefs, SharingOptions{})
	if _, ok := plan.Consumers[OperandKey{View: "A"}]; ok {
		t.Error("r=1 Comp must not read the over view's state")
	}
	if n := plan.Consumers[OperandKey{View: "B"}]; n != 1 {
		t.Errorf("state B consumers = %d, want 1", n)
	}
}

// TestAnalyzeSharingEstimate: the estimated savings price each shared
// operand at its statistics size times (consumers − 1).
func TestAnalyzeSharingEstimate(t *testing.T) {
	s := strategy.Strategy{
		strategy.Comp{View: "V1", Over: []string{"A", "B"}},
		strategy.Comp{View: "V2", Over: []string{"A", "B"}},
		strategy.Inst{View: "A"}, strategy.Inst{View: "B"},
		strategy.Inst{View: "V1"}, strategy.Inst{View: "V2"},
	}
	stats := cost.Stats{
		"A": {Size: 100, DeltaPlus: 5, DeltaMinus: 5},
		"B": {Size: 200, DeltaPlus: 10, DeltaMinus: 0},
	}
	plan := AnalyzeSharing(s, sharingRefs, SharingOptions{Stats: stats})
	// Shared: δA (10), δB (10), state A (100), state B (200); one extra
	// consumer each → 320 tuples saved.
	if plan.EstimatedSavedTuples != 320 {
		t.Errorf("EstimatedSavedTuples = %d, want 320", plan.EstimatedSavedTuples)
	}
}

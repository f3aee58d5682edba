package planner

import (
	"reflect"
	"testing"

	"repro/internal/cost"
	"repro/internal/strategy"
	"repro/internal/vdag"
)

// TestAnalyzeSharingBudgetClamp (regression): the election clamps to no byte
// budget. It counts n − 1 saved scans of every operand that n ≥ 2 Comps read
// and the statistics size, whatever its bytes: the window's cache keeps a
// build until its view installs, and the memory budget decides only whether
// it stays resident or spilled. State B is estimated at 192 MB, three times
// the 64 MiB the election once clamped to; state C, which the statistics
// miss, and δA's single reader elsewhere count nothing.
func TestAnalyzeSharingBudgetClamp(t *testing.T) {
	refs := func(view string) []string {
		switch view {
		case "V1", "V2":
			return []string{"A", "B", "C"}
		case "V3":
			return []string{"A"}
		}
		return nil
	}
	// Each Comp is over A alone (r = 1): it reads δA and the other references'
	// states.
	s := strategy.Strategy{
		strategy.Comp{View: "V1", Over: []string{"A"}},
		strategy.Comp{View: "V2", Over: []string{"A"}},
		strategy.Comp{View: "V3", Over: []string{"A"}},
		strategy.Inst{View: "A"},
		strategy.Inst{View: "V1"}, strategy.Inst{View: "V2"}, strategy.Inst{View: "V3"},
	}
	stats := cost.Stats{
		"A": {Size: 100, DeltaPlus: 5, DeltaMinus: 5},
		"B": {Size: 1_000_000},
	}
	plan := AnalyzeSharing(s, refs, SharingOptions{Stats: stats})
	if plan.SharedOperands != 3 {
		t.Errorf("SharedOperands = %d, want 3 (δA, B, C)", plan.SharedOperands)
	}
	// δA: three readers, 10 rows; B: two readers, a million rows.
	if want := int64(2*10 + 1_000_000); plan.EstimatedSavedTuples != want {
		t.Errorf("EstimatedSavedTuples = %d, want %d", plan.EstimatedSavedTuples, want)
	}
	want := []ElectedShare{
		{Name: "B v0", Consumers: 2, EstRows: 1_000_000, EstBytes: 192_000_000, EstSavedTuples: 1_000_000},
		{Name: "δA v0", Consumers: 3, EstRows: 10, EstBytes: 1920, EstSavedTuples: 20},
	}
	if !reflect.DeepEqual(plan.Elected, want) {
		t.Errorf("Elected = %+v\nwant %+v", plan.Elected, want)
	}
	if plan.Elected[0].EstBytes <= 64<<20 {
		t.Fatalf("state B is estimated at %d bytes: the test no longer passes 64 MiB", plan.Elected[0].EstBytes)
	}
	// Without statistics the analysis is structure only.
	if bare := AnalyzeSharing(s, refs, SharingOptions{}); bare.EstimatedSavedTuples != 0 || bare.Elected != nil || bare.SharedOperands != 3 {
		t.Errorf("without statistics: %+v", bare)
	}
}

// TestPruneSharedNoWorseThanHintBased: Prune's winner is inside
// PruneShared's candidate space, so the joint search can never end up with
// higher sharing-adjusted work than annotating Prune's plan after the fact.
func TestPruneSharedNoWorseThanHintBased(t *testing.T) {
	graphs := map[string]*vdag.Graph{
		"fig3":  fig3(),
		"fig10": fig10(),
		"tpcd":  tpcdGraph(),
	}
	for name, g := range graphs {
		stats := make(cost.Stats)
		for i, v := range g.Views() {
			stats[v] = cost.ViewStat{Size: int64(200 + 37*i), DeltaPlus: int64(5 + i), DeltaMinus: int64(3 + i)}
		}
		refs := uniformRefs(g)
		model := cost.DefaultModel
		pr, err := Prune(g, model, stats, refs)
		if err != nil {
			t.Fatalf("%s: Prune: %v", name, err)
		}
		shared, err := PruneShared(g, model, stats, refs, SharedSearchOptions{})
		if err != nil {
			t.Fatalf("%s: PruneShared: %v", name, err)
		}
		hint := AnalyzeSharing(pr.Strategy, refsFromCounts(refs), SharingOptions{Stats: stats})
		hintAdjusted := pr.Work - model.CompCoeff*float64(hint.EstimatedSavedTuples)
		if shared.AdjustedWork > hintAdjusted+1e-9 {
			t.Errorf("%s: joint adjusted work %.1f worse than hint-based %.1f", name, shared.AdjustedWork, hintAdjusted)
		}
		if shared.Strategy == nil {
			t.Fatalf("%s: no strategy", name)
		}
	}
}

// TestPruneSharedElectsSharingFriendlyPlan: on the Figure 10 problem VDAG
// with shrinking views, several orderings tie on raw work but differ in how
// installs version-split V2's state between V4's and V5's computes. Prune
// keeps the first work-minimal ordering it finds; the joint search detects
// that another work-equal ordering shares strictly more and picks it.
func TestPruneSharedElectsSharingFriendlyPlan(t *testing.T) {
	g := fig10()
	stats := make(cost.Stats)
	for _, v := range g.Views() {
		stats[v] = cost.ViewStat{Size: 1000, DeltaPlus: 10, DeltaMinus: 300}
	}
	refs := uniformRefs(g)
	model := cost.DefaultModel
	pr, err := Prune(g, model, stats, refs)
	if err != nil {
		t.Fatal(err)
	}
	hint := AnalyzeSharing(pr.Strategy, refsFromCounts(refs), SharingOptions{Stats: stats})
	shared, err := PruneShared(g, model, stats, refs, SharedSearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if shared.Plan.EstimatedSavedTuples <= hint.EstimatedSavedTuples {
		t.Errorf("joint savings %d not above hint-based %d (prune ordering %v, joint dual-stage=%v ordering %v)",
			shared.Plan.EstimatedSavedTuples, hint.EstimatedSavedTuples, pr.Ordering, shared.DualStage, shared.Ordering)
	}
	hintAdjusted := pr.Work - model.CompCoeff*float64(hint.EstimatedSavedTuples)
	if shared.AdjustedWork >= hintAdjusted {
		t.Errorf("joint adjusted work %.1f not strictly below hint-based %.1f", shared.AdjustedWork, hintAdjusted)
	}
}

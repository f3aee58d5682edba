package planner

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/strategy"
	"repro/internal/vdag"
)

// dualStageV12 is the two-consumer dual-stage strategy the estimate tests
// use: V1 and V2 both join A and B, computed before any install.
func dualStageV12() strategy.Strategy {
	return strategy.Strategy{
		strategy.Comp{View: "V1", Over: []string{"A", "B"}},
		strategy.Comp{View: "V2", Over: []string{"A", "B"}},
		strategy.Inst{View: "A"}, strategy.Inst{View: "B"},
		strategy.Inst{View: "V1"}, strategy.Inst{View: "V2"},
	}
}

// TestAnalyzeSharingBudgetClamp (regression): savings estimates must not
// count entries the byte budget cannot admit — those are evicted or never
// retained at run time, so reporting their savings overstates the plan.
func TestAnalyzeSharingBudgetClamp(t *testing.T) {
	s := dualStageV12()
	stats := cost.Stats{
		"A": {Size: 100, DeltaPlus: 5, DeltaMinus: 5},
		"B": {Size: 200, DeltaPlus: 10, DeltaMinus: 0},
	}
	unbounded := AnalyzeSharingOpts(s, sharingRefs, SharingOptions{Stats: stats})
	if unbounded.EstimatedSavedTuples != 320 {
		t.Fatalf("unbounded EstimatedSavedTuples = %d, want 320", unbounded.EstimatedSavedTuples)
	}
	// Candidates (nominal width 4, 48 B/cell): state A = 19200 B saving 100,
	// state B = 38400 B saving 200, δA = δB = 1920 B saving 10 each. A
	// 24000-byte budget admits state A and both deltas but not state B.
	clamped := AnalyzeSharingOpts(s, sharingRefs, SharingOptions{Stats: stats, BudgetBytes: 24000})
	if clamped.EstimatedSavedTuples != 120 {
		t.Errorf("clamped EstimatedSavedTuples = %d, want 120 (state B must not fit)", clamped.EstimatedSavedTuples)
	}
	// The refcount schedule is budget-independent: the executor still needs
	// every consumer count to release entries at the right time.
	if len(clamped.Consumers) != len(unbounded.Consumers) {
		t.Errorf("budget changed the consumer schedule: %d vs %d operands", len(clamped.Consumers), len(unbounded.Consumers))
	}
	var admitted, refused int
	var admittedBytes int64
	for _, e := range clamped.Elected {
		if e.Admitted {
			admitted++
			admittedBytes += e.EstBytes
		} else {
			refused++
		}
	}
	if admitted != 3 || refused != 1 {
		t.Errorf("elected admitted/refused = %d/%d, want 3/1: %+v", admitted, refused, clamped.Elected)
	}
	if admittedBytes > 24000 {
		t.Errorf("admitted bytes %d exceed the 24000-byte budget", admittedBytes)
	}
	// A starved budget admits nothing and reports zero savings.
	starved := AnalyzeSharingOpts(s, sharingRefs, SharingOptions{Stats: stats, BudgetBytes: 1})
	if starved.EstimatedSavedTuples != 0 {
		t.Errorf("starved EstimatedSavedTuples = %d, want 0", starved.EstimatedSavedTuples)
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
		hint := AnalyzeSharing(pr.Strategy, refsFromCounts(refs), stats)
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
	hint := AnalyzeSharing(pr.Strategy, refsFromCounts(refs), stats)
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
	// A starved budget admits nothing, so its adjusted work cannot beat the
	// unbounded search.
	starved, err := PruneShared(g, model, stats, refs, SharedSearchOptions{Sharing: SharingOptions{BudgetBytes: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if starved.Plan.EstimatedSavedTuples != 0 {
		t.Errorf("starved budget still reports %d saved tuples", starved.Plan.EstimatedSavedTuples)
	}
	if starved.AdjustedWork < shared.AdjustedWork {
		t.Errorf("starved adjusted work %.1f below unbounded %.1f", starved.AdjustedWork, shared.AdjustedWork)
	}
}

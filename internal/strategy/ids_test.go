package strategy_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/check"
	"repro/internal/cost"
	"repro/internal/planner"
	"repro/internal/strategy"
	"repro/internal/tpcd"
	"repro/internal/vdag"
)

// sameVerdict reports whether two validation results agree: both nil, or
// both errors with the same message.
func sameVerdict(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// mutants returns s with one expression swapped with another, dropped or
// duplicated, at drawn positions.
func mutants(s strategy.Strategy, rng *rand.Rand) []strategy.Strategy {
	if len(s) < 2 {
		return nil
	}
	var out []strategy.Strategy
	for k := 0; k < 4; k++ {
		i, j := rng.Intn(len(s)), rng.Intn(len(s))
		swapped := s.Clone()
		swapped[i], swapped[j] = swapped[j], swapped[i]
		dropped := append(s[:i:i], s[i+1:]...)
		duplicated := append(append(s[:j:j], s[i]), s[j:]...)
		out = append(out, swapped, dropped, duplicated)
	}
	return out
}

// TestValidationMatchesNames holds validation over view ids to the
// validation by name it replaced, message for message: on every strategy
// MinWork and Prune emit on the differential harness's Random catalogs and on
// TPC-D flat and deep, on DualStageVDAG, and on those
// strategies with an expression swapped, dropped or duplicated — each with no
// view quiescent and with the quiescent set of a drawn change batch.
func TestValidationMatchesNames(t *testing.T) {
	var graphs []*vdag.Graph
	for seed := int64(0); seed < 30; seed++ {
		graphs = append(graphs, check.Build(t, seed).Internal().Graph())
	}
	for _, deep := range []bool{false, true} {
		tw, err := tpcd.NewWarehouse(tpcd.Config{SF: 0.0005, Seed: 1, DeepVDAG: deep})
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, tw.W.Graph())
	}
	rng := rand.New(rand.NewSource(52))
	rejected := 0
	for gi, g := range graphs {
		stats := make(cost.Stats)
		for _, v := range g.Views() {
			size := 50 + rng.Int63n(500)
			stats[v] = cost.ViewStat{Size: size, DeltaPlus: rng.Int63n(size), DeltaMinus: rng.Int63n(size)}
		}
		refs := cost.UniformRefs(g.Views(), g.Children)
		mw, err := planner.MinWork(g, stats)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := planner.Prune(g, cost.DefaultModel, stats, refs)
		if err != nil {
			t.Fatal(err)
		}
		// A drawn batch: some base views change, and so does every view over
		// a changed one; the rest are quiescent.
		quiet := make([]bool, g.Len())
		for v := int32(0); v < int32(g.Len()); v++ {
			quiet[v] = len(g.ChildIDs(v)) > 0 || rng.Intn(2) == 0
			for _, c := range g.ChildIDs(v) {
				quiet[v] = quiet[v] && quiet[c]
			}
		}
		byName := func(view string) bool { id, _ := g.ID(view); return quiet[id] }
		for _, s := range []strategy.Strategy{mw.Strategy, pr.Strategy, strategy.DualStageVDAG(g)} {
			for _, m := range append([]strategy.Strategy{s}, mutants(s, rng)...) {
				name := fmt.Sprintf("graph %d (%v), %s", gi, g, m)
				got, want := strategy.ValidateVDAGStrategy(g, m), strategy.RefValidateVDAGStrategy(g, m, nil)
				if !sameVerdict(got, want) {
					t.Fatalf("%s: verdict %v, by name %v", name, got, want)
				}
				if got != nil {
					rejected++
				}
				got, want = strategy.ValidateVDAGStrategyRelaxed(g, m, quiet), strategy.RefValidateVDAGStrategy(g, m, byName)
				if !sameVerdict(got, want) {
					t.Fatalf("%s, relaxed: verdict %v, by name %v", name, got, want)
				}
			}
		}
	}
	if rejected == 0 {
		t.Errorf("no mutant was rejected: the comparison saw only correct strategies")
	}
}

// TestViewValidationMatchesNames is the same for one view's strategies: every
// correct strategy of a view over three children, mutated.
func TestViewValidationMatchesNames(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	children := []string{"A", "B", "C"}
	for _, s := range strategy.EnumerateViewStrategies("V", children) {
		for _, m := range append([]strategy.Strategy{s}, mutants(s, rng)...) {
			got, want := strategy.ValidateViewStrategy("V", children, m), strategy.RefValidateViewStrategy("V", children, m)
			if !sameVerdict(got, want) {
				t.Fatalf("%s: verdict %v, by name %v", m, got, want)
			}
		}
	}
}

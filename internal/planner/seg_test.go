package planner

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/strategy"
	"repro/internal/vdag"
)

// TestSection6InfeasibleOrdering reproduces the paper's Section 6 example:
// for the Figure 10 VDAG there is no 1-way VDAG strategy strongly
// consistent with ⟨V4, V1, V2, V3, V5⟩ — Comp(V4,{V3}) must follow Inst(V2)
// (C4 + strong consistency) but precede Inst(V4) ≺ Inst(V2) (C8 + the
// ordering), a cycle. ConstructSEG must detect it.
func TestSection6InfeasibleOrdering(t *testing.T) {
	g := fig10()
	seg := ConstructSEG(g, []string{"V4", "V1", "V2", "V3", "V5"})
	if seg.IsAcyclic() {
		t.Fatalf("SEG should be cyclic for ⟨V4,V1,V2,V3,V5⟩")
	}
	// The plain EG for the same ordering is also cyclic here; an ordering
	// that is EG-feasible but SEG-infeasible: ⟨V1,V2,V3,V5,V4⟩ on fig3 —
	// Inst(V4) must precede Comp(V5,{V4})'s… actually take the simple one:
	// install order must put V4 last, but Comp(V5,{V4}) < Inst(V4) (C3) and
	// Inst(V1) < Inst(V4)? Verify feasibility counting instead below.
}

// TestSEGFeasibilityMatchesEnumeration: for the Figure 10 VDAG, the set of
// orderings with an acyclic SEG must be exactly the set of install orders
// realized by some enumerated correct 1-way VDAG strategy (Lemma 6.1: the
// strong-consistency partition).
func TestSEGFeasibilityMatchesEnumeration(t *testing.T) {
	g := fig10()
	views := g.ViewsWithParents() // V1..V4
	feasible := make(map[string]bool)
	for _, ord := range strategy.Permutations(views) {
		if ConstructSEG(g, ord).IsAcyclic() {
			feasible[strings.Join(ord, ",")] = true
		}
	}
	realized := make(map[string]bool)
	for _, s := range strategy.EnumerateVDAGStrategies(g) {
		if !s.IsOneWay() {
			continue
		}
		// Install order restricted to views with parents.
		var ord []string
		withParents := make(map[string]bool)
		for _, v := range views {
			withParents[v] = true
		}
		for _, v := range s.InstOrder() {
			if withParents[v] {
				ord = append(ord, v)
			}
		}
		realized[strings.Join(ord, ",")] = true
	}
	for ord := range realized {
		if !feasible[ord] {
			t.Errorf("install order %s realized by an enumerated strategy but SEG says infeasible", ord)
		}
	}
	for ord := range feasible {
		if !realized[ord] {
			t.Errorf("SEG says %s feasible but no enumerated 1-way strategy realizes it", ord)
		}
	}
	if len(feasible) == 0 || len(feasible) == 24 {
		t.Errorf("expected a strict subset of the 4! orderings to be feasible, got %d", len(feasible))
	}
	t.Logf("fig10: %d of 24 orderings feasible", len(feasible))
}

// TestPruneFeasibleCountMatchesSEG is the property behind the search's prefix
// rule (place is +Inf for a view placed with two or more children unplaced):
// on the Figure 10 VDAG and on random deep VDAGs it never rejects an ordering
// whose ConstructSEG is acyclic, so the orderings Prune can count feasible are
// exactly the SEG sweep's. The rule is not complete — evaluate's cycle check
// catches the rest — and the test says how much it does catch.
func TestPruneFeasibleCountMatchesSEG(t *testing.T) {
	graphs := []*vdag.Graph{fig10()}
	for seed := int64(0); len(graphs) < 25; seed++ {
		if g := randomShape(rand.New(rand.NewSource(seed)), "deep"); len(g.ViewsWithParents()) <= 6 {
			graphs = append(graphs, g)
		}
	}
	cyclic, caught := 0, 0
	for _, g := range graphs {
		stats := cost.Stats{}
		for _, v := range g.Views() {
			stats[v] = cost.ViewStat{Size: 100, DeltaPlus: 5, DeltaMinus: 3}
		}
		s, err := compileSearch(g, cost.DefaultModel, stats, uniformRefs(g))
		if err != nil {
			t.Fatal(err)
		}
		node := make(map[string]int32) // s.ord is in ViewsWithParents order
		for i, v := range g.ViewsWithParents() {
			node[v] = s.ord[i]
		}
		feasible := 0
		for _, ord := range strategy.Permutations(g.ViewsWithParents()) {
			rejected, placed := false, uint32(0)
			for _, v := range ord {
				rejected = rejected || math.IsInf(s.place(node[v], placed), 1)
				placed |= s.bit[node[v]]
			}
			switch acyclic := ConstructSEG(g, ord).IsAcyclic(); {
			case acyclic && rejected:
				t.Errorf("%v: the prefix rule rejects %v, whose SEG is acyclic", g, ord)
			case acyclic:
				feasible++
			default:
				cyclic++
				if rejected {
					caught++
				}
			}
		}
		// Every ordering ties on these statistics, so the search completes few.
		if res, _ := s.run(func() float64 { return 0 }); res.Feasible < 1 || res.Feasible > feasible {
			t.Errorf("%v: Prune counts %d feasible orderings, the SEG sweep %d", g, res.Feasible, feasible)
		}
	}
	if caught == 0 {
		t.Error("the prefix rule caught no cyclic ordering")
	}
	t.Logf("%d graphs: the prefix rule catches %d of %d orderings with a cyclic SEG", len(graphs), caught, cyclic)
}

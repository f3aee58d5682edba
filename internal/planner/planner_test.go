package planner

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/strategy"
	"repro/internal/vdag"
)

// bestViewStrategy exhaustively evaluates every correct view strategy for a
// single view (one representative per ordered partition of the children)
// under the linear work metric and returns the cheapest. Exponential in the
// number of children; it is the oracle MinWorkSingle is tested against.
func bestViewStrategy(g *vdag.Graph, view string, model cost.Model, stats cost.Stats, refs cost.RefCounts) (strategy.Strategy, float64, error) {
	children := g.Children(view)
	if len(children) == 0 {
		return nil, 0, fmt.Errorf("planner: %q is a base view", view)
	}
	var best strategy.Strategy
	bestW := -1.0
	for _, s := range strategy.EnumerateViewStrategies(view, children) {
		w, err := cost.Work(model, stats, refs, s)
		if err != nil {
			return nil, 0, err
		}
		if bestW < 0 || w < bestW {
			bestW, best = w, s
		}
	}
	return best, bestW, nil
}

// hasDep reports whether expression a must come after expression b in eg.
func hasDep(eg *ExprGraph, a, b strategy.Expr) bool {
	at := func(x strategy.Expr) int {
		return slices.IndexFunc(eg.sk.nodes, func(e strategy.Expr) bool { return e.Key() == x.Key() })
	}
	ai, bi := at(a), at(b)
	if ai < 0 || bi < 0 {
		return false
	}
	for e := eg.deps.head[bi]; e >= 0; e = eg.deps.next[e] {
		if eg.deps.to[e] == int32(ai) {
			return true
		}
	}
	return false
}

func fig3() *vdag.Graph {
	return vdag.MustBuild(
		[2]interface{}{"V1", nil},
		[2]interface{}{"V2", nil},
		[2]interface{}{"V3", nil},
		[2]interface{}{"V4", []string{"V2", "V3"}},
		[2]interface{}{"V5", []string{"V4", "V1"}},
	)
}

// fig10 is the "Problem VDAG" of Figure 10: V4 over {V2,V3}, V5 over
// {V1,V2,V4} (V2 feeds both V4 and V5).
func fig10() *vdag.Graph {
	return vdag.MustBuild(
		[2]interface{}{"V1", nil},
		[2]interface{}{"V2", nil},
		[2]interface{}{"V3", nil},
		[2]interface{}{"V4", []string{"V2", "V3"}},
		[2]interface{}{"V5", []string{"V1", "V2", "V4"}},
	)
}

func tpcdGraph() *vdag.Graph {
	return vdag.MustBuild(
		[2]interface{}{"O", nil},
		[2]interface{}{"L", nil},
		[2]interface{}{"C", nil},
		[2]interface{}{"S", nil},
		[2]interface{}{"N", nil},
		[2]interface{}{"R", nil},
		[2]interface{}{"Q3", []string{"C", "O", "L"}},
		[2]interface{}{"Q5", []string{"C", "O", "L", "S", "N", "R"}},
		[2]interface{}{"Q10", []string{"C", "O", "L", "N"}},
	)
}

func uniformRefs(g *vdag.Graph) cost.RefCounts {
	return cost.UniformRefs(g.Views(), g.Children)
}

// randStats builds random statistics for every view of g.
func randStats(g *vdag.Graph, rng *rand.Rand) cost.Stats {
	stats := make(cost.Stats)
	for _, v := range g.Views() {
		size := rng.Int63n(500) + 50
		minus := rng.Int63n(size / 2)
		plus := rng.Int63n(size / 2)
		stats[v] = cost.ViewStat{Size: size, DeltaPlus: plus, DeltaMinus: minus}
	}
	return stats
}

func TestDesiredOrdering(t *testing.T) {
	stats := cost.Stats{
		"A": {Size: 10, DeltaPlus: 5},                // +5
		"B": {Size: 10, DeltaMinus: 3},               // −3
		"C": {Size: 10, DeltaPlus: 1, DeltaMinus: 1}, // 0
		"D": {Size: 10, DeltaPlus: 2, DeltaMinus: 2}, // 0 (tie with C)
	}
	ord, err := DesiredOrdering([]string{"A", "D", "C", "B"}, stats)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ord, []string{"B", "C", "D", "A"}) {
		t.Errorf("ordering = %v", ord)
	}
	if _, err := DesiredOrdering([]string{"Z"}, stats); err == nil {
		t.Errorf("missing stats accepted")
	}
}

func TestMinWorkSingleShape(t *testing.T) {
	stats := cost.Stats{
		"L": {Size: 600, DeltaMinus: 60},
		"O": {Size: 150, DeltaMinus: 15},
		"C": {Size: 15, DeltaMinus: 2},
	}
	s, err := MinWorkSingle("Q3", []string{"C", "O", "L"}, stats)
	if err != nil {
		t.Fatal(err)
	}
	// Largest deletion first: L, O, C.
	want := strategy.OneWayView("Q3", []string{"L", "O", "C"})
	if s.String() != want.String() {
		t.Errorf("MinWorkSingle = %s, want %s", s, want)
	}
	if _, err := MinWorkSingle("Q3", []string{"missing"}, stats); err == nil {
		t.Errorf("missing stats accepted")
	}
}

// TestMinWorkSingleOptimal is the Theorem 4.1/4.2 check: the MinWorkSingle
// strategy is the cheapest of all (2^n-partition) view strategies under the
// linear metric, for random statistics.
func TestMinWorkSingleOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	children := []string{"A", "B", "C", "D"}
	g := vdag.MustBuild(
		[2]interface{}{"A", nil}, [2]interface{}{"B", nil},
		[2]interface{}{"C", nil}, [2]interface{}{"D", nil},
		[2]interface{}{"V", []string{"A", "B", "C", "D"}},
	)
	refs := uniformRefs(g)
	for trial := 0; trial < 50; trial++ {
		stats := randStats(g, rng)
		mws, err := MinWorkSingle("V", children, stats)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cost.Work(cost.DefaultModel, stats, refs, mws)
		if err != nil {
			t.Fatal(err)
		}
		best, bestW, err := bestViewStrategy(g, "V", cost.DefaultModel, stats, refs)
		if err != nil {
			t.Fatal(err)
		}
		if got > bestW+1e-6 {
			t.Fatalf("trial %d: MinWorkSingle cost %v > optimal %v (%s vs %s)", trial, got, bestW, mws, best)
		}
	}
}

// TestTheorem41 verifies that the best 1-way strategy is optimal over all
// view strategies for random statistics.
func TestTheorem41(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := vdag.MustBuild(
		[2]interface{}{"A", nil}, [2]interface{}{"B", nil}, [2]interface{}{"C", nil},
		[2]interface{}{"V", []string{"A", "B", "C"}},
	)
	refs := uniformRefs(g)
	for trial := 0; trial < 50; trial++ {
		stats := randStats(g, rng)
		best1Way := -1.0
		for _, s := range strategy.EnumerateOneWayViewStrategies("V", []string{"A", "B", "C"}) {
			w, err := cost.Work(cost.DefaultModel, stats, refs, s)
			if err != nil {
				t.Fatal(err)
			}
			if best1Way < 0 || w < best1Way {
				best1Way = w
			}
		}
		_, bestAll, err := bestViewStrategy(g, "V", cost.DefaultModel, stats, refs)
		if err != nil {
			t.Fatal(err)
		}
		if best1Way > bestAll+1e-6 {
			t.Fatalf("trial %d: best 1-way %v worse than best overall %v", trial, best1Way, bestAll)
		}
	}
}

func TestConstructEGExample52(t *testing.T) {
	g := fig3()
	ordering := []string{"V4", "V2", "V1", "V3", "V5"}
	eg := ConstructEG(g, ordering)
	// Figure 7's edges (spot checks).
	comp42 := strategy.Comp{View: "V4", Over: []string{"V2"}}
	comp43 := strategy.Comp{View: "V4", Over: []string{"V3"}}
	comp54 := strategy.Comp{View: "V5", Over: []string{"V4"}}
	if !hasDep(eg, comp43, comp42) {
		t.Errorf("missing ordering edge Comp(V4,{V3}) after Comp(V4,{V2})")
	}
	if !hasDep(eg, comp54, comp42) || !hasDep(eg, comp54, comp43) {
		t.Errorf("missing C8 edges into Comp(V5,{V4})")
	}
	if !hasDep(eg, strategy.Inst{View: "V2"}, comp42) {
		t.Errorf("missing C3 edge")
	}
	if !hasDep(eg, strategy.Inst{View: "V4"}, comp42) {
		t.Errorf("missing C5 edge")
	}
	if !hasDep(eg, comp43, strategy.Inst{View: "V2"}) {
		t.Errorf("missing C4 edge")
	}
	if !eg.IsAcyclic() {
		t.Fatalf("tree VDAG EG must be acyclic")
	}
	s, err := eg.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	if err := strategy.ValidateVDAGStrategy(g, s); err != nil {
		t.Fatalf("topo sort invalid: %v (%s)", err, s)
	}
	if !strategy.IsConsistent(g, s, ordering) {
		t.Errorf("topo sort not consistent with ordering: %s", s)
	}
	if len(eg.deps.to) == 0 || len(eg.sk.nodes) != 9 {
		t.Errorf("graph shape wrong: %d nodes, %d edges", len(eg.sk.nodes), len(eg.deps.to))
	}
}

// TestFig10Cycle reproduces the paper's cyclic example: the Figure 10 VDAG
// with ordering ⟨V4, V2, V1, V3, V5⟩ yields a cyclic expression graph.
func TestFig10Cycle(t *testing.T) {
	g := fig10()
	eg := ConstructEG(g, []string{"V4", "V2", "V1", "V3", "V5"})
	if eg.IsAcyclic() {
		t.Fatalf("Figure 10 EG should be cyclic for ordering ⟨V4,V2,V1,V3,V5⟩")
	}
	if _, err := eg.TopoSort(); err == nil || !strings.Contains(err.Error(), "cyclic") {
		t.Errorf("TopoSort should report the cycle, got %v", err)
	}
	// ModifyOrdering must repair it (Theorem 5.5).
	mod := ModifyOrdering(g, []string{"V4", "V2", "V1", "V3", "V5"})
	if !reflect.DeepEqual(mod, []string{"V2", "V1", "V3", "V4", "V5"}) {
		t.Errorf("ModifyOrdering = %v", mod)
	}
	if !ConstructEG(g, mod).IsAcyclic() {
		t.Errorf("modified ordering still cyclic")
	}
}

// TestLemma51TreeAcyclic: every ordering of a tree VDAG yields an acyclic EG.
func TestLemma51TreeAcyclic(t *testing.T) {
	g := fig3()
	for _, ord := range strategy.Permutations([]string{"V1", "V2", "V3", "V4", "V5"}) {
		if !ConstructEG(g, ord).IsAcyclic() {
			t.Fatalf("tree VDAG cyclic for ordering %v", ord)
		}
	}
}

// TestLemma52UniformAcyclic: every ordering of a uniform VDAG yields an
// acyclic EG. (Sampled orderings: 9! is too many to sweep.)
func TestLemma52UniformAcyclic(t *testing.T) {
	g := tpcdGraph()
	rng := rand.New(rand.NewSource(3))
	views := g.Views()
	for trial := 0; trial < 200; trial++ {
		ord := append([]string(nil), views...)
		rng.Shuffle(len(ord), func(i, j int) { ord[i], ord[j] = ord[j], ord[i] })
		if !ConstructEG(g, ord).IsAcyclic() {
			t.Fatalf("uniform VDAG cyclic for ordering %v", ord)
		}
	}
}

// TestTheorem55ModifiedAlwaysAcyclic: for random DAGs and random orderings,
// the modified ordering always yields an acyclic EG.
func TestTheorem55ModifiedAlwaysAcyclic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		g := randomDAG(rng, 3+rng.Intn(5), 3)
		views := g.Views()
		ord := append([]string(nil), views...)
		rng.Shuffle(len(ord), func(i, j int) { ord[i], ord[j] = ord[j], ord[i] })
		mod := ModifyOrdering(g, ord)
		if !ConstructEG(g, mod).IsAcyclic() {
			t.Fatalf("trial %d: modified ordering cyclic for %s, ordering %v", trial, g, mod)
		}
	}
}

// randomDAG builds a random VDAG with nBase base views and up to nDerived
// derived views over random subsets.
func randomDAG(rng *rand.Rand, nBase, nDerived int) *vdag.Graph {
	b := vdag.NewBuilder()
	var names []string
	for i := 0; i < nBase; i++ {
		n := "B" + string(rune('0'+i))
		if err := b.Add(n, nil); err != nil {
			panic(err)
		}
		names = append(names, n)
	}
	for i := 0; i < nDerived; i++ {
		var over []string
		for _, c := range names {
			if rng.Intn(2) == 0 {
				over = append(over, c)
			}
		}
		if len(over) == 0 {
			over = []string{names[rng.Intn(len(names))]}
		}
		n := "D" + string(rune('0'+i))
		if err := b.Add(n, over); err != nil {
			panic(err)
		}
		names = append(names, n)
	}
	return b.Build()
}

// TestMinWorkOptimalOnTreeAndUniform certifies MinWork against the
// brute-force enumeration of all correct VDAG strategies (Theorem 5.4).
func TestMinWorkOptimalOnTreeAndUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	graphs := []*vdag.Graph{
		fig3(), // tree
		vdag.MustBuild( // small uniform, shared children
			[2]interface{}{"A", nil}, [2]interface{}{"B", nil}, [2]interface{}{"C", nil},
			[2]interface{}{"X", []string{"A", "B"}},
			[2]interface{}{"Y", []string{"B", "C"}},
		),
	}
	for gi, g := range graphs {
		refs := uniformRefs(g)
		all := strategy.EnumerateVDAGStrategies(g)
		if len(all) == 0 {
			t.Fatalf("graph %d: no strategies", gi)
		}
		for trial := 0; trial < 10; trial++ {
			stats := randStats(g, rng)
			res, err := MinWork(g, stats)
			if err != nil {
				t.Fatal(err)
			}
			if res.Modified {
				t.Fatalf("graph %d: MinWork should not need ModifyOrdering", gi)
			}
			if err := strategy.ValidateVDAGStrategy(g, res.Strategy); err != nil {
				t.Fatalf("graph %d: invalid strategy: %v", gi, err)
			}
			got, err := cost.Work(cost.DefaultModel, stats, refs, res.Strategy)
			if err != nil {
				t.Fatal(err)
			}
			best := -1.0
			var bestS strategy.Strategy
			for _, s := range all {
				w, err := cost.Work(cost.DefaultModel, stats, refs, s)
				if err != nil {
					t.Fatal(err)
				}
				if best < 0 || w < best {
					best, bestS = w, s
				}
			}
			if got > best+1e-6 {
				t.Fatalf("graph %d trial %d: MinWork %v > optimal %v\nminwork: %s\noptimal: %s",
					gi, trial, got, best, res.Strategy, bestS)
			}
		}
	}
}

// TestMinWorkAlwaysCorrect: on random DAGs (including non-tree, non-uniform)
// MinWork always yields a correct strategy.
func TestMinWorkAlwaysCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		g := randomDAG(rng, 2+rng.Intn(4), 1+rng.Intn(3))
		stats := randStats(g, rng)
		res, err := MinWork(g, stats)
		if err != nil {
			t.Fatalf("trial %d (%s): %v", trial, g, err)
		}
		if err := strategy.ValidateVDAGStrategy(g, res.Strategy); err != nil {
			t.Fatalf("trial %d (%s): %v\n%s", trial, g, err, res.Strategy)
		}
		if !res.Strategy.IsOneWay() {
			t.Fatalf("MinWork strategy not 1-way: %s", res.Strategy)
		}
	}
}

// TestPruneBestOneWay certifies Prune against brute force over all 1-way
// VDAG strategies on the Figure 10 problem VDAG.
func TestPruneBestOneWay(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := fig10()
	refs := uniformRefs(g)
	all := strategy.EnumerateVDAGStrategies(g)
	var oneWay []strategy.Strategy
	for _, s := range all {
		if s.IsOneWay() {
			oneWay = append(oneWay, s)
		}
	}
	if len(oneWay) == 0 {
		t.Fatal("no 1-way strategies")
	}
	for trial := 0; trial < 5; trial++ {
		stats := randStats(g, rng)
		res, err := Prune(g, cost.DefaultModel, stats, refs)
		if err != nil {
			t.Fatal(err)
		}
		if err := strategy.ValidateVDAGStrategy(g, res.Strategy); err != nil {
			t.Fatalf("Prune strategy invalid: %v", err)
		}
		best := -1.0
		for _, s := range oneWay {
			w, err := cost.Work(cost.DefaultModel, stats, refs, s)
			if err != nil {
				t.Fatal(err)
			}
			if best < 0 || w < best {
				best = w
			}
		}
		if res.Work > best+1e-6 {
			t.Fatalf("trial %d: Prune %v > best 1-way %v", trial, res.Work, best)
		}
		// 4 views with parents: a path to one ordering prices at least 4
		// prefixes, and there are 4 + 12 + 24 + 24 of them over 4! orderings.
		if res.Examined < 4 || res.Examined > 64 {
			t.Errorf("examined %d prefixes, want 4 to 64", res.Examined)
		}
		if res.Feasible == 0 || res.Feasible > 24 {
			t.Errorf("feasible = %d", res.Feasible)
		}
	}
}

// TestTheorem61 checks that all 1-way VDAG strategies strongly consistent
// with the same ordering incur the same work.
func TestTheorem61(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := fig3()
	refs := uniformRefs(g)
	var oneWay []strategy.Strategy
	for _, s := range strategy.EnumerateVDAGStrategies(g) {
		if s.IsOneWay() {
			oneWay = append(oneWay, s)
		}
	}
	for trial := 0; trial < 5; trial++ {
		stats := randStats(g, rng)
		// Partition by install order; all members of a partition must cost
		// the same.
		costs := make(map[string]float64)
		for _, s := range oneWay {
			key := strings.Join(s.InstOrder(), ",")
			w, err := cost.Work(cost.DefaultModel, stats, refs, s)
			if err != nil {
				t.Fatal(err)
			}
			if prev, ok := costs[key]; ok {
				if prev != w {
					t.Fatalf("trial %d: same install order %s, different work %v vs %v", trial, key, prev, w)
				}
			} else {
				costs[key] = w
			}
		}
	}
}

// TestPruneAtLeastAsGoodAsMinWork: Prune searches a superset of what
// MinWork considers, so it can never be worse under the metric.
func TestPruneAtLeastAsGoodAsMinWork(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		g := randomDAG(rng, 2+rng.Intn(3), 1+rng.Intn(2))
		refs := uniformRefs(g)
		stats := randStats(g, rng)
		mw, err := MinWork(g, stats)
		if err != nil {
			t.Fatal(err)
		}
		mwWork, err := cost.Work(cost.DefaultModel, stats, refs, mw.Strategy)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := Prune(g, cost.DefaultModel, stats, refs)
		if err != nil {
			t.Fatal(err)
		}
		if pr.Work > mwWork+1e-6 {
			t.Fatalf("trial %d (%s): Prune %v worse than MinWork %v", trial, g, pr.Work, mwWork)
		}
	}
}

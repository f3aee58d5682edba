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

// searchCase is one seeded input of the differential test.
type searchCase struct {
	g     *vdag.Graph
	model cost.Model
	stats cost.Stats
	refs  cost.RefCounts
	opts  SharedSearchOptions
}

// randomSearchCase draws a VDAG of the given shape with minOrderable to
// maxOrderable views with parents, with statistics, self-join reference
// counts, and a seed-chosen model, widths and reference order.
func randomSearchCase(rng *rand.Rand, shape string, minOrderable, maxOrderable int) searchCase {
	var g *vdag.Graph
	for {
		g = randomShape(rng, shape)
		if m := len(g.ViewsWithParents()); m >= minOrderable && m <= maxOrderable {
			break
		}
	}
	c := searchCase{g: g, stats: randStats(g, rng), refs: uniformRefs(g)}
	for _, m := range c.refs {
		for child := range m {
			if rng.Intn(6) == 0 {
				m[child] = 2 // a self-join: the Comp over it has 3 terms
			}
		}
	}
	// Dyadic coefficients keep every sum exact, so the reference's
	// map-ordered float additions cannot differ in the last bit.
	c.model = []cost.Model{
		cost.DefaultModel,
		{CompCoeff: 2, InstCoeff: 1},
		{CompCoeff: 1, InstCoeff: 4, MemoryBudgetBytes: 48 * 4 * 300, SpillCoeff: 0.5},
	}[rng.Intn(3)]
	if rng.Intn(2) == 0 {
		c.opts.Sharing.Width = func(view string) int { return 2 + len(view)%3 }
	}
	if rng.Intn(3) == 0 {
		// A reference list in another order than the sorted expansion.
		sorted := refsFromCounts(c.refs)
		c.opts.Refs = func(view string) []string {
			list := sorted(view)
			for i, j := 0, len(list)-1; i < j; i, j = i+1, j-1 {
				list[i], list[j] = list[j], list[i]
			}
			return list
		}
	}
	return c
}

// randomShape builds a random VDAG: "tree" (no view has two parents),
// "uniform" (summaries over subsets of the bases), or "deep" (derived views
// over derived views, so C8 chains several levels long).
func randomShape(rng *rand.Rand, shape string) *vdag.Graph {
	b := vdag.NewBuilder()
	add := func(name string, over []string) string {
		if err := b.Add(name, over); err != nil {
			panic(err)
		}
		return name
	}
	var views []string
	for i, n := 0, 3+rng.Intn(4); i < n; i++ {
		views = append(views, add(fmt.Sprintf("B%d", i), nil))
	}
	switch shape {
	case "tree":
		free := append([]string(nil), views...) // views without a parent yet
		for i := 0; len(free) > 1 && i < 4; i++ {
			rng.Shuffle(len(free), func(a, b int) { free[a], free[b] = free[b], free[a] })
			k := 1 + rng.Intn(min(3, len(free)))
			free = append(free[k:], add(fmt.Sprintf("T%d", i), append([]string(nil), free[:k]...)))
		}
	case "uniform":
		for i, n := 0, 2+rng.Intn(2); i < n; i++ {
			var over []string
			for _, v := range views {
				if rng.Intn(3) > 0 {
					over = append(over, v)
				}
			}
			if len(over) == 0 {
				over = views[:1]
			}
			add(fmt.Sprintf("U%d", i), over)
		}
	default:
		for i, n := 0, 2+rng.Intn(3); i < n; i++ {
			over := []string{views[len(views)-1-rng.Intn(2)]} // chain onto a recent view
			for _, v := range views {
				if v != over[0] && rng.Intn(3) == 0 {
					over = append(over, v)
				}
			}
			views = append(views, add(fmt.Sprintf("D%d", i), over))
		}
	}
	return b.Build()
}

// TestCompiledSearchMatchesReference is the differential test of the
// compiled, bounded search: over seeded random VDAGs — orderings with cyclic
// SEGs among them — Prune and PruneShared choose
// what the per-ordering ConstructSEG → TopoSort → cost.Work → sharing
// analysis loop over all m! orderings chooses, the analysis being the
// pre-compilation implementation, and every winner is a correct VDAG strategy.
func TestCompiledSearchMatchesReference(t *testing.T) {
	cases := 180
	if testing.Short() {
		cases = 60
	}
	shapes := []string{"tree", "uniform", "deep"}
	for seed := 0; seed < cases; seed++ {
		// Each case owns its random source, so the cases run side by side.
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(seed)))
			minOrderable, maxOrderable := 3, 5
			switch {
			case seed == 11 || seed == 21 || seed == 128: // deep, tree, deep: 40 320 orderings each
				minOrderable, maxOrderable = 8, 8
			case seed%15 == 0:
				maxOrderable = 7
			}
			shape := shapes[seed%len(shapes)]
			c := randomSearchCase(rng, shape, minOrderable, maxOrderable)
			name := fmt.Sprintf("seed %d (%s, %v)", seed, shape, c.g)

			want, err := refPrune(c.g, c.model, c.stats, c.refs)
			if err != nil {
				t.Fatalf("%s: reference Prune: %v", name, err)
			}
			got, err := Prune(c.g, c.model, c.stats, c.refs)
			if err != nil {
				t.Fatalf("%s: Prune: %v", name, err)
			}
			// Not the counters: the search prices prefixes and completes few
			// orderings, the loop completes all m!.
			got.Examined, got.Feasible = want.Examined, want.Feasible
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Prune = %+v\nwant %+v", name, got, want)
			}
			if err := strategy.ValidateVDAGStrategy(c.g, got.Strategy); err != nil {
				t.Errorf("%s: Prune's strategy is not correct: %v", name, err)
			}

			wantS, err := refPruneShared(c.g, c.model, c.stats, c.refs, c.opts, refAnalyzeSharing)
			if err != nil {
				t.Fatalf("%s: reference PruneShared: %v", name, err)
			}
			gotS, err := PruneShared(c.g, c.model, c.stats, c.refs, c.opts)
			if err != nil {
				t.Fatalf("%s: PruneShared: %v", name, err)
			}
			gotS.Examined, gotS.Feasible = wantS.Examined, wantS.Feasible
			if !reflect.DeepEqual(gotS, wantS) {
				t.Errorf("%s: PruneShared = %+v\nwant %+v", name, gotS, wantS)
			}
			if err := strategy.ValidateVDAGStrategy(c.g, gotS.Strategy); err != nil {
				t.Errorf("%s: PruneShared's strategy is not correct: %v", name, err)
			}
			// The same loop over today's analysis: the search's election and the
			// one-shot election are the same code on the same reads.
			if again, _ := refPruneShared(c.g, c.model, c.stats, c.refs, c.opts, AnalyzeSharing); !reflect.DeepEqual(gotS, again) {
				t.Errorf("%s: PruneShared differs from the loop over AnalyzeSharing: %+v\nwant %+v", name, gotS, again)
			}
		})
	}
}

// TestBoundedSearchNonDyadic holds the bound admissible in floating point.
// Under coefficients no binary fraction represents, the bound and evaluate sum
// the same terms in different orders and may differ in the last bits; the
// search must still return exactly what a plain loop of evaluate() and
// saved() over every permutation returns — on statistics full of ties too,
// where rounding alone decides between orderings.
func TestBoundedSearchNonDyadic(t *testing.T) {
	shapes := []string{"tree", "uniform", "deep"}
	for seed := 0; seed < 90; seed++ {
		rng := rand.New(rand.NewSource(int64(5000 + seed)))
		c := randomSearchCase(rng, shapes[seed%len(shapes)], 3, 6)
		c.model = cost.Model{CompCoeff: 0.1 + rng.Float64(), InstCoeff: 0.3 + 3*rng.Float64()}
		if seed%2 == 0 {
			c.model.MemoryBudgetBytes, c.model.SpillCoeff = 48*4*300, 0.7
		}
		if seed%3 > 0 { // few distinct statistics: many orderings tie but for rounding
			for _, v := range c.g.Views() {
				c.stats[v] = cost.ViewStat{Size: int64(300 + 100*rng.Intn(2)), DeltaPlus: int64(7 * rng.Intn(2)), DeltaMinus: int64(3 * rng.Intn(2))}
			}
		}
		for _, shared := range []bool{false, true} {
			compile := func() (*search, func() float64) {
				s, err := compileSearch(c.g, c.model, c.stats, c.refs)
				if err != nil {
					t.Fatal(err)
				}
				if !shared {
					return s, func() float64 { return 0 }
				}
				opts := c.opts.Sharing
				opts.Stats = c.stats
				sh := compileSharing(s.nodes, refsFromCounts(c.refs), opts)
				s.boundSharing(sh)
				return s, func() float64 { return s.model.CompCoeff * float64(sh.analyze(s.out)) }
			}
			s, saved := compile()
			sweep, sweepSaved := compile() // the same input, for the plain loop
			if s.roundingSlack() == 0 {
				t.Fatalf("seed %d: the model %+v is priced as if its sums were exact", seed, c.model)
			}
			got, gotAdjusted := s.run(saved)

			var want []int32
			wantWork, wantAdjusted := -1.0, -1.0
			strategy.VisitPermutations(sweep.ord, func([]int32) {
				if w, ok := sweep.evaluate(); ok {
					if adj := w - sweepSaved(); wantAdjusted < 0 || adj < wantAdjusted {
						want, wantWork, wantAdjusted = slices.Clone(sweep.ord), w, adj
					}
				}
			})
			var wantOrdering []string
			for _, v := range want {
				wantOrdering = append(wantOrdering, sweep.nodes[v].(strategy.Inst).View)
			}
			if !reflect.DeepEqual(got.Ordering, wantOrdering) || got.Work != wantWork || gotAdjusted != wantAdjusted {
				t.Errorf("seed %d (%v, shared %v): searched %v work %v adjusted %v, swept %v work %v adjusted %v",
					seed, c.g, shared, got.Ordering, got.Work, gotAdjusted, wantOrdering, wantWork, wantAdjusted)
			}
		}
	}
}

// TestSearchRefusesTooManyViews: the search keeps a cost per subset of the
// views with parents, so past maxSearchViews of them Prune and PruneShared
// fail at once — naming the count and MinWork, which plans such a VDAG —
// rather than allocate 2^m floats.
func TestSearchRefusesTooManyViews(t *testing.T) {
	pairs := [][2]interface{}{}
	var bases []string
	for i := 0; i <= maxSearchViews; i++ {
		bases = append(bases, fmt.Sprintf("B%02d", i))
		pairs = append(pairs, [2]interface{}{bases[i], nil})
	}
	g := vdag.MustBuild(append(pairs, [2]interface{}{"D", bases})...)
	stats, opts := tpcdSearchInputs(g)
	_, err := Prune(g, cost.DefaultModel, stats, uniformRefs(g))
	_, errShared := PruneShared(g, cost.DefaultModel, stats, uniformRefs(g), opts)
	for _, err := range []error{err, errShared} {
		if err == nil || !strings.Contains(err.Error(), "21 views") || !strings.Contains(err.Error(), "MinWork") {
			t.Errorf("21 views with parents: error %v, want one naming the count and MinWork", err)
		}
	}
	if _, err := MinWork(g, stats); err != nil {
		t.Errorf("MinWork on the same VDAG: %v", err)
	}
}

// TestAnalyzeSharingMatchesReference compares the compiled sharing analysis
// with the pre-compilation one on strategies no search emits: dual-stage,
// partitioned multi-way Comps, and analysis without statistics.
func TestAnalyzeSharingMatchesReference(t *testing.T) {
	for seed := 0; seed < 120; seed++ {
		rng := rand.New(rand.NewSource(int64(1000 + seed)))
		c := randomSearchCase(rng, []string{"tree", "uniform", "deep"}[seed%3], 3, 6)
		refsFn := c.opts.Refs
		if refsFn == nil {
			refsFn = refsFromCounts(c.refs)
		}
		opts := c.opts.Sharing
		if seed%4 > 0 {
			opts.Stats = c.stats
		}
		if seed%5 == 0 {
			delete(c.stats, c.g.Views()[0]) // a view the statistics miss
		}
		mw, err := MinWork(c.g, randStats(c.g, rng))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []strategy.Strategy{strategy.DualStageVDAG(c.g), mw.Strategy} {
			got, want := AnalyzeSharing(s, refsFn, opts), refAnalyzeSharing(s, refsFn, opts)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d, %v:\n got %+v\nwant %+v", seed, s, got, want)
			}
		}
	}
}

// tpcdSearchGraph is the TPC-D VDAG of the benchmark's plan-space sweep: the
// six base views under Q3, Q5 and Q10, with summaries over them added one at a
// time for seven to ten views with parents.
func tpcdSearchGraph(orderable int) *vdag.Graph {
	pairs := [][2]interface{}{
		{"C", nil}, {"O", nil}, {"L", nil}, {"S", nil}, {"N", nil}, {"R", nil},
		{"Q3", []string{"C", "O", "L"}},
		{"Q5", []string{"C", "O", "L", "S", "N", "R"}},
		{"Q10", []string{"C", "O", "L", "N"}},
	}
	if orderable >= 7 {
		pairs = append(pairs, [2]interface{}{"Q3P", []string{"Q3"}})
	}
	if orderable >= 8 {
		pairs = append(pairs, [2]interface{}{"NR", []string{"Q5", "N"}})
	}
	if orderable >= 9 {
		pairs = append(pairs, [2]interface{}{"Q10P", []string{"Q10"}})
	}
	if orderable >= 10 {
		pairs = append(pairs, [2]interface{}{"TOP", []string{"Q3P"}})
	}
	return vdag.MustBuild(pairs...)
}

// tpcdSearchInputs are fixed statistics for tpcdSearchGraph.
func tpcdSearchInputs(g *vdag.Graph) (cost.Stats, SharedSearchOptions) {
	stats := make(cost.Stats)
	for i, v := range g.Views() {
		stats[v] = cost.ViewStat{Size: int64(1500 - 170*i + 37*i*i), DeltaPlus: int64(11 + 7*i), DeltaMinus: int64(40 - 3*i)}
	}
	return stats, SharedSearchOptions{}
}

// TestSearchGolden pins Prune on the TPC-D graphs to what the commit before
// the compiled search returned, and its counters to what the bound leaves of
// the search: m(m+1)/2 prefixes priced on the way to one ordering. On these
// graphs that ordering also has the least sharing-adjusted work, and
// PruneShared, whose bound is exact, walks the same prefixes to it.
func TestSearchGolden(t *testing.T) {
	for _, want := range []struct {
		orderable                    int
		prune                        string
		pruneWork, adjusted          float64
		pruneExamined, pruneFeasible int
	}{
		{orderable: 6, pruneExamined: 21, pruneFeasible: 1,
			prune:     "⟨Comp(Q3, {C}); Comp(Q5, {C}); Comp(Q10, {C}); Inst(C); Comp(Q3, {O}); Comp(Q5, {O}); Comp(Q10, {O}); Inst(O); Comp(Q3, {L}); Comp(Q5, {L}); Comp(Q10, {L}); Inst(L); Comp(Q5, {S}); Inst(S); Comp(Q5, {N}); Comp(Q10, {N}); Inst(N); Comp(Q5, {R}); Inst(R); Inst(Q3); Inst(Q5); Inst(Q10)⟩",
			pruneWork: 68456, adjusted: 14819},
		{orderable: 7, pruneExamined: 28, pruneFeasible: 1,
			prune:     "⟨Comp(Q3, {C}); Comp(Q5, {C}); Comp(Q10, {C}); Inst(C); Comp(Q3, {O}); Comp(Q5, {O}); Comp(Q10, {O}); Inst(O); Comp(Q3, {L}); Comp(Q5, {L}); Comp(Q10, {L}); Inst(L); Comp(Q5, {S}); Inst(S); Comp(Q5, {N}); Comp(Q10, {N}); Inst(N); Comp(Q5, {R}); Inst(R); Comp(Q3P, {Q3}); Inst(Q3); Inst(Q5); Inst(Q10); Inst(Q3P)⟩",
			pruneWork: 68618, adjusted: 14981},
	} {
		g := tpcdSearchGraph(want.orderable)
		stats, opts := tpcdSearchInputs(g)
		pr, err := Prune(g, cost.DefaultModel, stats, uniformRefs(g))
		if err != nil {
			t.Fatal(err)
		}
		sh, err := PruneShared(g, cost.DefaultModel, stats, uniformRefs(g), opts)
		if err != nil {
			t.Fatal(err)
		}
		if pr.Strategy.String() != want.prune || pr.Work != want.pruneWork || pr.Examined != want.pruneExamined || pr.Feasible != want.pruneFeasible {
			t.Errorf("%d views: Prune = %v, work %v, examined %d, feasible %d", want.orderable, pr.Strategy, pr.Work, pr.Examined, pr.Feasible)
		}
		if sh.Strategy.String() != want.prune || sh.Work != want.pruneWork || sh.AdjustedWork != want.adjusted ||
			sh.Examined != want.pruneExamined || sh.Feasible != want.pruneFeasible {
			t.Errorf("%d views: PruneShared = %v, work %v, adjusted %v, examined %d, feasible %d",
				want.orderable, sh.Strategy, sh.Work, sh.AdjustedWork, sh.Examined, sh.Feasible)
		}
	}
}

// TestSearchAllocations gates, without a clock, that costing an ordering
// allocates nothing — directly, on the compiled evaluation of one ordering,
// and at the surface: PruneShared over 720 orderings allocates about what it
// does over 6 on a VDAG of about the same size (what it allocates is the
// compilation and the rendered winner, which grow with the VDAG), and a
// 7-view search allocates a few hundred times (the string-keyed graphs it
// replaces took 5.58 million).
func TestSearchAllocations(t *testing.T) {
	g := tpcdSearchGraph(7)
	stats, opts := tpcdSearchInputs(g)
	opts.Sharing.Stats = stats
	s, err := compileSearch(g, cost.DefaultModel, stats, uniformRefs(g))
	if err != nil {
		t.Fatal(err)
	}
	sh := compileSharing(s.nodes, refsFromCounts(uniformRefs(g)), opts.Sharing)
	if n := testing.AllocsPerRun(10, func() {
		strategy.VisitPermutations(s.ord[:4], func([]int32) {
			if _, ok := s.evaluate(); ok {
				sh.analyze(s.out)
			}
		})
	}); n != 0 {
		t.Errorf("costing 24 orderings allocates %.0f times, want 0", n)
	}

	summaries := func(nBase, nDerived int) *vdag.Graph {
		var pairs [][2]interface{}
		var bases []string
		for i := 0; i < nBase; i++ {
			bases = append(bases, fmt.Sprintf("B%d", i))
			pairs = append(pairs, [2]interface{}{bases[i], nil})
		}
		for i := 0; i < nDerived; i++ {
			pairs = append(pairs, [2]interface{}{fmt.Sprintf("D%d", i), bases})
		}
		return vdag.MustBuild(pairs...)
	}
	allocs := func(g *vdag.Graph) float64 {
		stats, opts := tpcdSearchInputs(g)
		// Reference lists handed out ready-made, as a catalog would, so the
		// count is the planner's own.
		lists := make(map[string][]string)
		for _, v := range g.Views() {
			lists[v] = g.Children(v)
		}
		opts.Refs = func(view string) []string { return lists[view] }
		refs := uniformRefs(g)
		return testing.AllocsPerRun(3, func() {
			if _, err := PruneShared(g, cost.DefaultModel, stats, refs, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	// 3 views with parents under 4 summaries (12 edges, 6 orderings) against
	// 6 under 2 (12 edges, 720 orderings).
	few, many := allocs(summaries(3, 4)), allocs(summaries(6, 2))
	if diff := many - few; diff <= -64 || diff >= 64 {
		t.Errorf("PruneShared allocates %.0f times over 6 orderings and %.0f over 720", few, many)
	}
	if n := allocs(tpcdSearchGraph(7)); n >= 2000 {
		t.Errorf("PruneShared on seven views with parents allocates %.0f times, want < 2000", n)
	}
}

// TestZeroModelIsDefaultModel (regression): with a model that has no
// coefficients PruneShared priced saved scans at the default coefficient but
// the work itself at zero, so adjusted work went negative. Both searches now
// read such a model as cost.DefaultModel, its memory budget kept.
func TestZeroModelIsDefaultModel(t *testing.T) {
	g := tpcdSearchGraph(6)
	stats, opts := tpcdSearchInputs(g)
	refs := uniformRefs(g)
	for _, budget := range []int64{0, 48 * 4 * 300} {
		zero, def := cost.Model{MemoryBudgetBytes: budget}, cost.DefaultModel
		def.MemoryBudgetBytes = budget
		got, err := PruneShared(g, zero, stats, refs, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.AdjustedWork <= 0 || got.Work <= 0 {
			t.Errorf("budget %d: zero model gives work %v, adjusted %v", budget, got.Work, got.AdjustedWork)
		}
		if want, _ := PruneShared(g, def, stats, refs, opts); !reflect.DeepEqual(got, want) {
			t.Errorf("budget %d: zero model gives %+v\ndefault model %+v", budget, got, want)
		}
		pr, err := Prune(g, zero, stats, refs)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := Prune(g, def, stats, refs); !reflect.DeepEqual(pr, want) {
			t.Errorf("budget %d: Prune with a zero model gives %+v\ndefault model %+v", budget, pr, want)
		}
	}
}

package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/delta"
	"repro/internal/planner"
	"repro/internal/relation"
	"repro/internal/strategy"
	"repro/internal/vdag"
)

// The tests of the Section 9 conflict analysis — staging, the precedence
// DAG, and the fuzz harness over both.

// newForkWarehouse builds two independent derived views over shared bases:
// J1 = R⋈S (on b), J2 = σ(R). Their comps can run in parallel.
func newForkWarehouse(t *testing.T) *core.Warehouse {
	t.Helper()
	w := core.New(core.Options{})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.DefineBase("R", schemaR))
	must(w.DefineBase("S", schemaS))
	defineSQL(t, w, "J1", "SELECT r.a, s.c FROM R r, S s WHERE r.b = s.b")
	defineSQL(t, w, "J2", "SELECT r.a, r.b FROM R r WHERE r.a > 1")
	must(w.LoadBase("R", []relation.Tuple{intRow(1, 10), intRow(2, 10), intRow(3, 20), intRow(4, 20)}))
	must(w.LoadBase("S", []relation.Tuple{intRow(10, 100), intRow(20, 200)}))
	must(w.RefreshAll())
	return w
}

func stageForkChanges(t *testing.T, w *core.Warehouse) {
	t.Helper()
	dR := delta.New(schemaR)
	dR.Add(intRow(2, 10), -1)
	dR.Add(intRow(5, 20), 1)
	if err := w.StageDelta("R", dR); err != nil {
		t.Fatal(err)
	}
	dS := delta.New(schemaS)
	dS.Add(intRow(20, 200), -1)
	if err := w.StageDelta("S", dS); err != nil {
		t.Fatal(err)
	}
}

func forkDualStage(w *core.Warehouse) strategy.Strategy {
	return strategy.Strategy{
		strategy.Comp{View: "J1", Over: []string{"R", "S"}},
		strategy.Comp{View: "J2", Over: []string{"R"}},
		strategy.Inst{View: "R"}, strategy.Inst{View: "S"},
		strategy.Inst{View: "J1"}, strategy.Inst{View: "J2"},
	}
}

func TestParallelizeDualStage(t *testing.T) {
	w := newForkWarehouse(t)
	plan := Parallelize(forkDualStage(w), w.Graph())
	// Both comps are independent → stage 1; all installs conflict with the
	// comps → stage 2.
	if len(plan) != 2 {
		t.Fatalf("stages = %d (%s)", len(plan), plan)
	}
	if len(plan[0]) != 2 || len(plan[1]) != 4 {
		t.Errorf("stage sizes wrong: %s", plan)
	}
	if !strings.Contains(plan.String(), "[1:") {
		t.Errorf("String = %q", plan.String())
	}
}

func TestParallelizeOneWayKeepsOrder(t *testing.T) {
	w := newForkWarehouse(t)
	s := strategy.Strategy{
		strategy.Comp{View: "J1", Over: []string{"R"}},
		strategy.Comp{View: "J2", Over: []string{"R"}},
		strategy.Inst{View: "R"},
		strategy.Comp{View: "J1", Over: []string{"S"}},
		strategy.Inst{View: "S"},
		strategy.Inst{View: "J1"}, strategy.Inst{View: "J2"},
	}
	plan := Parallelize(s, w.Graph())
	// Stage 1: both comps over R. Stage 2: Inst(R). Stage 3: Comp(J1,{S}),
	// Inst(J2)? Inst(J2) conflicts with Comp(J2,{R}) (stage 1) only → could
	// land in stage 2 alongside Inst(R).
	if len(plan) < 4 {
		t.Fatalf("expected ≥4 stages, got %d (%s)", len(plan), plan)
	}
	// First stage holds the two independent comps.
	if len(plan[0]) != 2 {
		t.Errorf("stage 1 = %v", plan[0])
	}
}

func TestExecuteErrorPropagates(t *testing.T) {
	for _, mode := range []Mode{ModeSequential, ModeStaged, ModeDAG} {
		w := newForkWarehouse(t)
		if _, err := Execute(w, strategy.Strategy{strategy.Comp{View: "nope", Over: []string{"R"}}}, Options{Mode: mode}); err == nil {
			t.Errorf("%s: unknown view accepted", mode)
		}
		if _, err := Execute(w, strategy.Strategy{nil}, Options{Mode: mode}); err == nil {
			t.Errorf("%s: nil expression accepted", mode)
		}
	}
}

// TestParallelizePropertyRandom checks, for random VDAGs and their MinWork
// strategies, that staging (a) preserves the expression multiset and (b)
// never reorders a conflicting pair across stages, and that the DAG it is
// read off (c) has exactly the conflicts as edges and is acyclic.
func TestParallelizePropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		g := randomGraph(rng)
		stats := make(cost.Stats)
		for _, v := range g.Views() {
			stats[v] = cost.ViewStat{Size: rng.Int63n(100) + 10, DeltaPlus: rng.Int63n(10), DeltaMinus: rng.Int63n(10)}
		}
		res, err := planner.MinWork(g, stats)
		if err != nil {
			t.Fatal(err)
		}
		plan := Parallelize(res.Strategy, g)
		d := BuildDAG(res.Strategy, g)
		if d.Len() != len(res.Strategy) || d.Levels() != len(plan) {
			t.Fatalf("trial %d: DAG has %d nodes in %d levels, strategy %d in %d stages",
				trial, d.Len(), d.Levels(), len(res.Strategy), len(plan))
		}
		// (a) same multiset of expressions.
		seen := make(map[string]int)
		for _, e := range res.Strategy {
			seen[e.Key()]++
		}
		stageOf := make(map[string]int)
		for si, stage := range plan {
			for _, e := range stage {
				seen[e.Key()]--
				stageOf[e.Key()] = si
			}
		}
		for k, n := range seen {
			if n != 0 {
				t.Fatalf("trial %d: expression %s count off by %d", trial, k, n)
			}
		}
		// (b) conflicting pairs keep their order across stages.
		for i := 0; i < len(res.Strategy); i++ {
			for j := i + 1; j < len(res.Strategy); j++ {
				conflict := conflicts(res.Strategy[i], res.Strategy[j], g.Children)
				if conflict {
					si, sj := stageOf[res.Strategy[i].Key()], stageOf[res.Strategy[j].Key()]
					if si >= sj {
						t.Fatalf("trial %d: conflict %s ≺ %s but stages %d ≥ %d",
							trial, res.Strategy[i], res.Strategy[j], si, sj)
					}
				}
				// (c) every conflict is an edge and nothing else is.
				if edge := slices.Contains(d.Preds(j), int32(i)); edge != conflict {
					t.Fatalf("trial %d: edge %d→%d = %v, conflict = %v", trial, i, j, edge, conflict)
				}
			}
			if slices.ContainsFunc(d.Preds(i), func(j int32) bool { return int(j) >= i }) {
				t.Fatalf("trial %d: node %d waits for a later node: the DAG is not acyclic", trial, i)
			}
		}
	}
}

func randomGraph(rng *rand.Rand) *vdag.Graph {
	b := vdag.NewBuilder()
	var names []string
	nBase := 2 + rng.Intn(3)
	for i := 0; i < nBase; i++ {
		n := fmt.Sprintf("B%d", i)
		if err := b.Add(n, nil); err != nil {
			panic(err)
		}
		names = append(names, n)
	}
	for i := 0; i < 1+rng.Intn(3); i++ {
		var over []string
		for _, c := range names {
			if rng.Intn(2) == 0 {
				over = append(over, c)
			}
		}
		if len(over) == 0 {
			over = names[:1]
		}
		n := fmt.Sprintf("D%d", i)
		if err := b.Add(n, over); err != nil {
			panic(err)
		}
		names = append(names, n)
	}
	return b.Build()
}

func TestSpeedupEmptyPlan(t *testing.T) {
	var r Schedule
	if r.Speedup() != 1 {
		t.Errorf("zero-span speedup = %v", r.Speedup())
	}
}

// TestInlineFlatteningEnablesTwoStagePlan reproduces the Section 9
// flattening example: K over J over R waits for J's comp, and K defined over
// R directly — what inlining J's definition into K gives — lets every comp
// run in the first stage.
func TestInlineFlatteningEnablesTwoStagePlan(t *testing.T) {
	// Chain: R → J (π over R) → K (σ over J).
	w := core.New(core.Options{})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.DefineBase("R", schemaR))
	defineSQL(t, w, "J", "SELECT r.a, r.b FROM R r")
	defineSQL(t, w, "K", "SELECT j.a FROM J j WHERE j.a > 2")

	// Unflattened: Comp(K,{J}) must follow Comp(J,{R}) → ≥2 comp stages.
	s := strategy.Strategy{
		strategy.Comp{View: "J", Over: []string{"R"}},
		strategy.Comp{View: "K", Over: []string{"J"}},
		strategy.Inst{View: "R"}, strategy.Inst{View: "J"}, strategy.Inst{View: "K"},
	}
	plan := Parallelize(s, w.Graph())
	if len(plan[0]) != 1 {
		t.Fatalf("unflattened first stage = %v", plan[0])
	}

	// Flattened: K references R directly.
	w2 := core.New(core.Options{})
	must(w2.DefineBase("R", schemaR))
	defineSQL(t, w2, "J", "SELECT r.a, r.b FROM R r")
	defineSQL(t, w2, "K", "SELECT r.a FROM R r WHERE r.a > 2")
	must(w2.LoadBase("R", []relation.Tuple{intRow(1, 10), intRow(3, 30), intRow(4, 40)}))
	must(w2.RefreshAll())
	dR := delta.New(schemaR)
	dR.Add(intRow(3, 30), -1)
	dR.Add(intRow(9, 90), 1)
	must(w2.StageDelta("R", dR))

	sf := strategy.Strategy{
		strategy.Comp{View: "J", Over: []string{"R"}},
		strategy.Comp{View: "K", Over: []string{"R"}},
		strategy.Inst{View: "R"}, strategy.Inst{View: "J"}, strategy.Inst{View: "K"},
	}
	planF := Parallelize(sf, w2.Graph())
	if len(planF[0]) != 2 {
		t.Fatalf("flattened first stage = %v (%s)", planF[0], planF)
	}
	rep, err := Execute(w2, sf, Options{Mode: ModeStaged})
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.VerifyAll(); err != nil {
		t.Fatal(err)
	}
	if rep.Sched.Levels != len(planF) {
		t.Errorf("report has %d levels, plan %d stages", rep.Sched.Levels, len(planF))
	}
	// K must reflect the change: row 9 (>2) present, 3 gone.
	rows := w2.MustView("K").SortedRows()
	want := "(4)(9)"
	got := ""
	for _, r := range rows {
		got += r.Tuple.String()
	}
	if got != want {
		t.Errorf("K = %v", rows)
	}
}

// fuzzVDAG is a small fixed VDAG for the fuzz harness:
//
//	R, S          bases
//	J1 ← {R, S}   join
//	J2 ← {R}      selection
//	K  ← {J1}     level-2 view
var fuzzVDAG = map[string][]string{
	"R": nil, "S": nil,
	"J1": {"R", "S"},
	"J2": {"R"},
	"K":  {"J1"},
}

func fuzzChildren(view string) []string { return fuzzVDAG[view] }

var fuzzGraph = vdag.MustBuild(
	[2]interface{}{"R", nil}, [2]interface{}{"S", nil},
	[2]interface{}{"J1", fuzzVDAG["J1"]},
	[2]interface{}{"J2", fuzzVDAG["J2"]},
	[2]interface{}{"K", fuzzVDAG["K"]},
)

// conflicts is the conflict relation as BuildDAG decided it by name before
// it resolved views to ids: whether expression b must wait for earlier
// expression a, children resolving the views a derived view is defined
// over. The tests hold the id form to it.
func conflicts(a, b strategy.Expr, children func(view string) []string) bool {
	switch x := a.(type) {
	case strategy.Inst:
		switch y := b.(type) {
		case strategy.Inst:
			return x.View == y.View
		case strategy.Comp:
			for _, c := range children(y.View) {
				if c == x.View {
					return true
				}
			}
			return y.View == x.View
		}
	case strategy.Comp:
		switch y := b.(type) {
		case strategy.Inst:
			if y.View == x.View {
				return true
			}
			return slices.Contains(x.Over, y.View)
		case strategy.Comp:
			if x.View == y.View {
				return true
			}
			return slices.Contains(y.Over, x.View) || slices.Contains(x.Over, y.View)
		}
	}
	return false
}

// fuzzVocab is the expression alphabet fuzzed strategies are decoded from:
// every Inst plus every 1-way and combined Comp over the fuzz VDAG.
var fuzzVocab = []strategy.Expr{
	strategy.Inst{View: "R"}, strategy.Inst{View: "S"},
	strategy.Inst{View: "J1"}, strategy.Inst{View: "J2"}, strategy.Inst{View: "K"},
	strategy.Comp{View: "J1", Over: []string{"R"}},
	strategy.Comp{View: "J1", Over: []string{"S"}},
	strategy.Comp{View: "J1", Over: []string{"R", "S"}},
	strategy.Comp{View: "J2", Over: []string{"R"}},
	strategy.Comp{View: "K", Over: []string{"J1"}},
}

// decodeStrategy maps fuzz bytes to a strategy: one expression per byte,
// length capped so the quadratic conflict checks stay fast.
func decodeStrategy(data []byte) strategy.Strategy {
	if len(data) > 24 {
		data = data[:24]
	}
	s := make(strategy.Strategy, 0, len(data))
	for _, b := range data {
		s = append(s, fuzzVocab[int(b)%len(fuzzVocab)])
	}
	return s
}

// FuzzParallelizeRespectsConflicts asserts, for arbitrary expression
// sequences, the two structural invariants the executors rely on: staging
// and DAG construction keep every conflicting pair in its original relative
// order, and the precedence DAG is acyclic. (Parallelize and BuildDAG are
// purely syntactic — they must uphold this for incorrect strategies too.)
func FuzzParallelizeRespectsConflicts(f *testing.F) {
	f.Add([]byte{5, 8, 0, 6, 1, 9, 2, 4, 3})     // a sensible 1-way strategy
	f.Add([]byte{7, 8, 0, 1, 2, 3, 4})           // dual-stage-like
	f.Add([]byte{0, 0, 0, 5, 5, 5})              // heavy duplication
	f.Add([]byte{9, 4, 3, 2, 1, 0, 8, 7, 6, 5})  // reversed nonsense order
	f.Add([]byte{})                              // empty strategy
	f.Add([]byte{255, 128, 64, 32, 16, 8, 4, 2}) // out-of-range bytes wrap
	f.Fuzz(func(t *testing.T, data []byte) {
		s := decodeStrategy(data)
		plan := Parallelize(s, fuzzGraph)
		d := BuildDAG(s, fuzzGraph)

		if d.Len() != len(s) {
			t.Fatalf("expression count changed: dag %d, strategy %d", d.Len(), len(s))
		}
		if d.Levels() != len(plan) {
			t.Fatalf("dag levels %d != plan stages %d", d.Levels(), len(plan))
		}

		// Positions are not unique keys (duplicates allowed), so recover each
		// node's stage from the plan by walking it in order: expressions
		// within a stage preserve strategy order, which pins duplicates.
		stageOf := make([]int, len(s))
		used := make([]bool, len(s))
		for si, stage := range plan {
			for _, e := range stage {
				found := false
				for i := range s {
					if !used[i] && s[i].Key() == e.Key() {
						stageOf[i], used[i] = si, true
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("stage %d holds %s not in strategy", si, e)
				}
			}
		}
		if i := slices.Index(used, false); i >= 0 {
			t.Fatalf("no stage holds %s", s[i])
		}

		for i := 0; i < len(s); i++ {
			for j := i + 1; j < len(s); j++ {
				if !conflicts(s[i], s[j], fuzzChildren) {
					continue
				}
				// Staging must strictly order the pair…
				if stageOf[i] >= stageOf[j] {
					t.Fatalf("conflict %s ≺ %s but stages %d ≥ %d",
						s[i], s[j], stageOf[i], stageOf[j])
				}
				// …and the DAG must carry the edge, in the original direction.
				if !slices.Contains(d.Preds(j), int32(i)) {
					t.Fatalf("conflict %s ≺ %s has no DAG edge %d→%d", s[i], s[j], i, j)
				}
			}
			if slices.ContainsFunc(d.Preds(i), func(j int32) bool { return int(j) >= i }) {
				t.Fatalf("node %d waits for a later node: the DAG is not acyclic", i)
			}
		}
	})
}

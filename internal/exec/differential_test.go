package exec

// Differential-testing harness for the scheduler: for ~100 seeded random
// VDAGs (mixed join/aggregate views, 1–4 derivation levels, diamond sharing)
// with random insert/delete/mixed change batches, every point of mode ×
// workers × engine width × sharing must leave warehouse states bag-identical
// to the sequential default run and to a full recompute, with identical
// per-step Work and Terms. The comparison is the ExactStats discipline —
// every view's sorted (tuple, count) bag — applied across configurations
// instead of against the cost model.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/planner"
	"repro/internal/relation"
	"repro/internal/strategy"
)

// diffWarehouse builds a random leveled warehouse: 2–3 integer bases at
// level 0, then 1–4 derivation levels of 1–2 views each. Every view's first
// child comes from the previous level (so the VDAG really is that deep) and
// a second child, when present, from any earlier level — which makes
// diamonds (two parents sharing a child, later rejoined) common.
func diffWarehouse(t *testing.T, rng *rand.Rand) *core.Warehouse {
	t.Helper()
	w := core.New(core.Options{})
	type viewInfo struct {
		name   string
		schema relation.Schema
	}
	var all []viewInfo
	prev := []viewInfo{} // views of the previous level

	nBase := 2 + rng.Intn(2)
	for i := 0; i < nBase; i++ {
		name := fmt.Sprintf("B%d", i)
		cols := 2 + rng.Intn(2)
		schema := make(relation.Schema, cols)
		for c := 0; c < cols; c++ {
			schema[c] = relation.Column{Name: fmt.Sprintf("c%d", c), Kind: relation.KindInt}
		}
		if err := w.DefineBase(name, schema); err != nil {
			t.Fatal(err)
		}
		var rows []relation.Tuple
		for r := 0; r < 8+rng.Intn(20); r++ {
			tup := make(relation.Tuple, cols)
			for c := range tup {
				tup[c] = relation.NewInt(rng.Int63n(5))
			}
			rows = append(rows, tup)
		}
		if err := w.LoadBase(name, rows); err != nil {
			t.Fatal(err)
		}
		all = append(all, viewInfo{name, schema})
		prev = append(prev, viewInfo{name, schema})
	}

	levels := 1 + rng.Intn(4)
	id := 0
	for level := 1; level <= levels; level++ {
		var cur []viewInfo
		for k := 0; k < 1+rng.Intn(2); k++ {
			refs := []viewInfo{prev[rng.Intn(len(prev))]}
			if rng.Intn(2) == 0 {
				other := all[rng.Intn(len(all))]
				if other.name != refs[0].name {
					refs = append(refs, other)
				}
			}
			b := algebra.NewBuilder()
			var aliases []string
			for r, child := range refs {
				alias := fmt.Sprintf("t%d", r)
				b.From(alias, child.name, child.schema)
				aliases = append(aliases, alias)
			}
			randCol := func(r int) string {
				return aliases[r] + "." + refs[r].schema[rng.Intn(len(refs[r].schema))].Name
			}
			for r := 1; r < len(refs); r++ {
				b.Join(randCol(r-1), randCol(r))
			}
			if rng.Intn(3) == 0 {
				b.Where(&algebra.Binary{
					Op: algebra.OpLe,
					L:  b.Col(randCol(0)),
					R:  &algebra.Const{Value: relation.NewInt(rng.Int63n(5) + 1)},
				})
			}
			if rng.Intn(2) == 0 {
				// Aggregate view (SUM/COUNT: exactly comparable integers).
				b.GroupByCol(randCol(0), "g")
				b.Agg("s", delta.AggSum, b.Col(randCol(len(refs)-1)))
				b.Agg("n", delta.AggCount, nil)
			} else {
				b.SelectCol(randCol(0), "p0")
				b.SelectCol(randCol(len(refs)-1), "p1")
			}
			def, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("D%d", id)
			id++
			if err := w.DefineDerived(name, def); err != nil {
				t.Fatal(err)
			}
			cur = append(cur, viewInfo{name, def.OutputSchema()})
			all = append(all, viewInfo{name, def.OutputSchema()})
		}
		prev = cur
	}
	if err := w.RefreshAll(); err != nil {
		t.Fatal(err)
	}
	return w
}

// stageDiffChanges stages a change batch on every base view in one of three
// shapes: inserts only, deletes only, or mixed.
func stageDiffChanges(t *testing.T, w *core.Warehouse, rng *rand.Rand) {
	t.Helper()
	kind := rng.Intn(3) // 0 = inserts, 1 = deletes, 2 = mixed
	for _, name := range w.ViewNames() {
		v := w.MustView(name)
		if !v.IsBase() {
			continue
		}
		d := delta.New(v.Schema())
		if kind != 0 {
			for _, r := range v.SortedRows() {
				if rng.Intn(4) == 0 {
					n := int64(1)
					if r.Count > 1 && rng.Intn(2) == 0 {
						n = r.Count
					}
					d.Add(r.Tuple, -n)
				}
			}
		}
		if kind != 1 {
			for i := 0; i < 1+rng.Intn(5); i++ {
				tup := make(relation.Tuple, len(v.Schema()))
				for c := range tup {
					tup[c] = relation.NewInt(rng.Int63n(5))
				}
				d.Add(tup, 1)
			}
		}
		if err := w.StageDelta(name, d); err != nil {
			t.Fatal(err)
		}
	}
}

// viewBags snapshots every view's sorted (tuple, count) bag.
func viewBags(w *core.Warehouse) map[string][]string {
	bags := make(map[string][]string)
	for _, v := range w.ViewNames() {
		for _, r := range w.MustView(v).SortedRows() {
			bags[v] = append(bags[v], fmt.Sprintf("%v x%d", r.Tuple, r.Count))
		}
	}
	return bags
}

func compareBags(t *testing.T, trial int, name string, ref, got map[string][]string) {
	t.Helper()
	for v := range ref {
		a, b := ref[v], got[v]
		if len(a) != len(b) {
			t.Fatalf("trial %d %s: %s has %d rows, reference %d", trial, name, v, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d %s: %s row %d: %s vs reference %s", trial, name, v, i, b[i], a[i])
			}
		}
	}
}

// sameSteps checks a leg's report against the reference run step by step:
// caches, sharing and scheduling change what the machine does, never what
// the linear work metric counts.
func sameSteps(t *testing.T, trial int, name string, ref, got Report) {
	t.Helper()
	if len(got.Steps) != len(ref.Steps) {
		t.Fatalf("trial %d %s: %d steps vs %d in the reference run", trial, name, len(got.Steps), len(ref.Steps))
	}
	for i, step := range got.Steps {
		want := ref.Steps[i]
		if step.Expr.Key() != want.Expr.Key() || step.Work != want.Work || step.Terms != want.Terms {
			t.Fatalf("trial %d %s step %d %s: work=%d terms=%d, reference %s work=%d terms=%d",
				trial, name, i, step.Expr, step.Work, step.Terms, want.Expr, want.Work, want.Terms)
		}
	}
}

// TestDifferentialExecutors is the harness entry point. Legs this harness
// used to run and what covers them now: "exec.Execute vs parallel.Run
// sequential" and "staged parallel.Execute(Plan)" compared separate loops
// that no longer exist (every leg below is the one loop); "term-parallel
// under sequential scheduling" is the dag+wide leg here plus core's
// TestTermEngineWidthInvariant, which holds Work, Terms and the cache
// counters equal across widths.
func TestDifferentialExecutors(t *testing.T) {
	trials := 100
	if testing.Short() {
		trials = 15
	}
	rng := rand.New(rand.NewSource(20260806))
	for trial := 0; trial < trials; trial++ {
		base := diffWarehouse(t, rng)
		stageDiffChanges(t, base, rng)

		g, err := Graph(base)
		if err != nil {
			t.Fatal(err)
		}
		var s strategy.Strategy
		if trial%2 == 0 {
			s = strategy.DualStageVDAG(g)
		} else {
			stats, err := PlanningStats(base)
			if err != nil {
				t.Fatal(err)
			}
			mw, err := planner.MinWork(g, stats)
			if err != nil {
				t.Fatalf("trial %d (%s): %v", trial, g, err)
			}
			s = mw.Strategy
		}

		// Reference: sequential, default engine.
		seq := base.Clone()
		ref, err := Execute(seq, s, Options{Validate: true})
		if err != nil {
			t.Fatalf("trial %d sequential (%s): %v\nstrategy: %s", trial, g, err, s)
		}
		if err := seq.VerifyAll(); err != nil {
			t.Fatalf("trial %d sequential: %v", trial, err)
		}
		refBags := viewBags(seq)

		// The legs: scheduling mode × scheduler workers × engine width ×
		// window-wide sharing, pool sizes drawn per trial.
		mixed := ModeDAG
		if trial%2 == 0 {
			mixed = ModeStaged
		}
		wk := 1 + rng.Intn(8)
		for _, leg := range []struct {
			name string
			mode Mode
			wk   int
			core core.Options
		}{
			{"staged", ModeStaged, 0, core.Options{}},
			{"dag", ModeDAG, 1 + rng.Intn(8), core.Options{}},
			// Both levels composed: DAG scheduling across expressions and a
			// wide term engine inside each Comp, sharing one worker budget.
			{"dag+wide", ModeDAG, wk, core.Options{ParallelTerms: true, Workers: wk}},
			{"shared", ModeSequential, 0, core.Options{ShareComputation: true}},
			{"shared+" + string(mixed), mixed, wk, core.Options{ShareComputation: true, ParallelTerms: trial%2 == 0, Workers: wk}},
		} {
			w := base.Clone()
			w.SetOptions(leg.core)
			rep, err := Execute(w, s, Options{Mode: leg.mode, Workers: leg.wk, Validate: true})
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, leg.name, err)
			}
			compareBags(t, trial, leg.name, refBags, viewBags(w))
			sameSteps(t, trial, leg.name, ref, rep)
		}

		// Full recompute: fold the base deltas in, rebuild every derived view
		// from scratch.
		rec := base.Clone()
		for _, name := range rec.ViewNames() {
			if rec.MustView(name).IsBase() {
				if _, err := rec.Install(name); err != nil {
					t.Fatalf("trial %d recompute install %s: %v", trial, name, err)
				}
			}
		}
		if err := rec.RefreshAll(); err != nil {
			t.Fatalf("trial %d recompute: %v", trial, err)
		}
		compareBags(t, trial, "recompute", refBags, viewBags(rec))
	}
}

// invalidationWarehouse builds the fixture of the window-cache property test:
// integer bases B0(k,x), B1(k,y), B2(k,z), the summary view G = SUM(y),
// COUNT(*) of B1 by k, and two sibling views over B0 ⋈ G ⋈ B2 on k — P1 a
// join view, P2 a summary of the same join. G is an aggregate store, so every
// term that reads its state hashes it (no index serves it), and the siblings
// hash it on the same column: a window that keeps its build cache builds it
// once per version of G. B1 is small, so that a change batch makes groups of
// G appear and disappear: a build of G's state made before its install then
// differs from one made after in the rows it holds, not only in their values.
func invalidationWarehouse(t *testing.T, rng *rand.Rand) *core.Warehouse {
	t.Helper()
	w := core.New(core.Options{})
	base := func(name, col string, n int) relation.Schema {
		schema := relation.Schema{{Name: "k", Kind: relation.KindInt}, {Name: col, Kind: relation.KindInt}}
		if err := w.DefineBase(name, schema); err != nil {
			t.Fatal(err)
		}
		var rows []relation.Tuple
		for i := 0; i < n; i++ {
			rows = append(rows, relation.Tuple{relation.NewInt(rng.Int63n(6)), relation.NewInt(rng.Int63n(4))})
		}
		if err := w.LoadBase(name, rows); err != nil {
			t.Fatal(err)
		}
		return schema
	}
	s0, s1, s2 := base("B0", "x", 10+rng.Intn(15)), base("B1", "y", 3+rng.Intn(4)), base("B2", "z", 10+rng.Intn(15))
	define := func(name string, b *algebra.Builder) relation.Schema {
		def, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if err := w.DefineDerived(name, def); err != nil {
			t.Fatal(err)
		}
		return def.OutputSchema()
	}
	gb := algebra.NewBuilder().From("b", "B1", s1)
	gb.GroupByCol("b.k", "k")
	gb.Agg("s", delta.AggSum, gb.Col("b.y"))
	gb.Agg("n", delta.AggCount, nil)
	sg := define("G", gb)
	join := func() *algebra.Builder {
		b := algebra.NewBuilder().From("a", "B0", s0).From("g", "G", sg).From("c", "B2", s2)
		return b.Join("a.k", "g.k").Join("a.k", "c.k")
	}
	p1 := join()
	p1.SelectCol("a.x", "x")
	p1.SelectCol("g.s", "s")
	p1.SelectCol("c.z", "z")
	define("P1", p1)
	p2 := join()
	p2.GroupByCol("c.z", "z")
	p2.Agg("t", delta.AggSum, p2.Col("g.s"))
	p2.Agg("n", delta.AggCount, nil)
	define("P2", p2)
	if err := w.RefreshAll(); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestWindowCacheInvalidationDifferential is the property test of the one
// line the window-lived build cache's correctness rests on: Install(V) drops
// the builds made from V's state and from δV. In the 1-way strategy below the
// sibling Comps over {B2} hash G's state, G then installs, and the Comps over
// {B0} must hash G's new state, not find the old build; the dual-stage
// strategy has the siblings' multi-delta terms build the deltas themselves,
// which their views' installs then drop. Every point of mode × engine width ×
// memory budget × shared budget must install the digests and leave the bags
// of the sharing-off sequential run, and verify against recomputation.
func TestWindowCacheInvalidationDifferential(t *testing.T) {
	oneWay := strategy.Strategy{
		strategy.Comp{View: "P1", Over: []string{"B2"}}, strategy.Comp{View: "P2", Over: []string{"B2"}}, strategy.Inst{View: "B2"},
		strategy.Comp{View: "G", Over: []string{"B1"}}, strategy.Inst{View: "B1"},
		strategy.Comp{View: "P1", Over: []string{"G"}}, strategy.Comp{View: "P2", Over: []string{"G"}}, strategy.Inst{View: "G"},
		strategy.Comp{View: "P1", Over: []string{"B0"}}, strategy.Comp{View: "P2", Over: []string{"B0"}}, strategy.Inst{View: "B0"},
		strategy.Inst{View: "P1"}, strategy.Inst{View: "P2"},
	}
	trials := 6
	if testing.Short() {
		trials = 2
	}
	rng := rand.New(rand.NewSource(20261002))
	var hits, spills, rebuilt int
	for trial := 0; trial < trials; trial++ {
		base := invalidationWarehouse(t, rng)
		stageDiffChanges(t, base, rng)
		// On top of the random batch, one key that is certain to show a stale
		// build: δB1 changes (or creates) G's group 2, and δB0 and δB2 each
		// bring a row that joins it.
		for _, name := range []string{"B0", "B1", "B2"} {
			d := delta.New(base.MustView(name).Schema())
			d.Add(relation.Tuple{relation.NewInt(2), relation.NewInt(3)}, 1)
			if err := base.StageDelta(name, d); err != nil {
				t.Fatal(err)
			}
		}
		g, err := Graph(base)
		if err != nil {
			t.Fatal(err)
		}
		s := oneWay
		if trial%3 == 2 {
			s = strategy.DualStageVDAG(g)
		}

		seq := base.Clone()
		ref, err := Execute(seq, s, Options{Validate: true})
		if err != nil {
			t.Fatalf("trial %d reference: %v", trial, err)
		}
		if err := seq.VerifyAll(); err != nil {
			t.Fatalf("trial %d reference: %v", trial, err)
		}
		refBags := viewBags(seq)

		for _, mode := range []Mode{ModeSequential, ModeStaged, ModeDAG} {
			for _, wide := range []bool{false, true} {
				for _, mem := range []int64{0, 1 << 20, 1} {
					for _, shared := range []int64{64 << 20, 1} {
						name := fmt.Sprintf("%s wide=%v mem=%d shared=%d", mode, wide, mem, shared)
						w := base.Clone()
						w.SetOptions(core.Options{
							ShareComputation: true, SharedBudgetBytes: shared, MemoryBudgetBytes: mem,
							ParallelTerms: wide, Workers: 2,
						})
						rep, err := Execute(w, s, Options{Mode: mode, Workers: 3, Validate: true, SpillDir: t.TempDir()})
						if err != nil {
							t.Fatalf("trial %d %s: %v", trial, name, err)
						}
						compareBags(t, trial, name, refBags, viewBags(w))
						sameSteps(t, trial, name, ref, rep)
						for i, step := range rep.Steps {
							if step.Digest != ref.Steps[i].Digest {
								t.Fatalf("trial %d %s: %s installed digest %x, reference %x", trial, name, step.Expr, step.Digest, ref.Steps[i].Digest)
							}
							hits += step.SharedHits
							spills += step.SpillCount
						}
						if err := w.VerifyAll(); err != nil {
							t.Fatalf("trial %d %s: %v", trial, name, err)
						}
						var builds int
						for _, d := range rep.SharedDetail {
							if d.Name == "G[0]" {
								builds++
							}
						}
						if builds > 1 {
							rebuilt++
						}
					}
				}
			}
		}
	}
	if hits == 0 || spills == 0 || rebuilt == 0 {
		t.Fatalf("%d shared hits, %d spills, %d windows that built G's state again after its install: the harness exercised nothing", hits, spills, rebuilt)
	}
}
